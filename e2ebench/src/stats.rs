//! Percentiles, the paper's error measures, and the process's peak RSS —
//! the benchmark's own arithmetic, kept apart from the code it measures.

/// Nearest-rank percentile (`q` in `[0, 1]`) of unsorted samples; `None`
/// when there are none.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    Some(sorted[rank - 1])
}

/// Median of unsorted samples.
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 0.5)
}

/// Mean of samples (0 for none).
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// The paper's error measure for a task, accumulated row by row so the
/// adapted and the source error cover exactly the same labelled rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorMeasure {
    /// Step error (STE): mean Euclidean distance between predicted and true
    /// step displacement (PDR).
    Ste,
    /// Root mean squared logarithmic error (taxi-trip duration).
    Rmsle,
}

impl ErrorMeasure {
    /// One row's contribution to the error sum.
    pub fn row(self, pred: &[f64], label: &[f64]) -> f64 {
        assert_eq!(
            pred.len(),
            label.len(),
            "prediction and label widths differ"
        );
        match self {
            ErrorMeasure::Ste => pred
                .iter()
                .zip(label)
                .map(|(p, t)| (p - t) * (p - t))
                .sum::<f64>()
                .sqrt(),
            ErrorMeasure::Rmsle => pred
                .iter()
                .zip(label)
                .map(|(p, t)| {
                    let d = (1.0 + p.max(0.0)).ln() - (1.0 + t.max(0.0)).ln();
                    d * d
                })
                .sum(),
        }
    }

    /// The error of `rows` rows whose contributions sum to `sum`.
    pub fn finish(self, sum: f64, rows: usize) -> f64 {
        let mean = sum / rows.max(1) as f64;
        match self {
            ErrorMeasure::Ste => mean,
            ErrorMeasure::Rmsle => mean.sqrt(),
        }
    }
}

/// Peak resident set of this process in MiB (`VmHWM`), or `None` where
/// `/proc/self/status` is unavailable.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Total and stolen CPU time of this machine so far, in clock ticks, from
/// the first line of `/proc/stat`; `None` where it is unavailable. Steal is
/// time the hypervisor ran something else on this machine's CPUs, which
/// slows every timing here without any change to the program.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .take(8)
        .map(|v| v.parse().ok())
        .collect::<Option<_>>()?;
    Some((fields.iter().sum(), *fields.get(7)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), Some(5.0));
        assert_eq!(percentile(&v, 0.9), Some(9.0));
        assert_eq!(percentile(&v, 1.0), Some(10.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn error_measures_match_hand_values() {
        let ste = ErrorMeasure::Ste;
        assert_eq!(ste.row(&[3.0, 0.0], &[0.0, 4.0]), 5.0);
        assert_eq!(ste.finish(10.0, 4), 2.5);
        let rmsle = ErrorMeasure::Rmsle;
        let d = 10f64.ln() - 5f64.ln();
        assert!((rmsle.finish(rmsle.row(&[9.0], &[4.0]), 1) - d).abs() < 1e-12);
        assert!(rmsle.row(&[-3.0], &[4.0]).is_finite());
    }
}
