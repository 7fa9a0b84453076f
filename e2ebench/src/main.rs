//! End-to-end benchmark of adaptation and serving through the public
//! `ServeRuntime` / `ServeWorker` API.
//!
//! ```text
//! bash e2ebench/run.sh --workload <adapt-walkers|serve-walkers|serve-churn> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed`, and the end-to-end metrics (`--trace 0`) or the
//! per-layer metrics (`--trace 1`). A failed correctness check exits with
//! code 1 and prints no result. See `e2ebench/README.md`.

mod layers;
mod replay;
mod stats;
mod workload;

use std::fmt::Write as _;
use std::time::Instant;

use layers::{Metric, Tracer};
use workload::{Kind, Workload};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut kind = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn json_line(attempted: usize, failed: usize, metrics: &[(&str, &str, f64)]) -> String {
    let mut out = format!(
        "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, unit, value)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push_str("}}");
    out
}

fn run(args: &Args) -> Result<String, String> {
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut built = None;
    for _ in 0..SETUPS {
        // Drop the previous set-up first, so set-ups never overlap in memory.
        drop(built.take());
        let start = Instant::now();
        built = Some(Workload::build(args.kind, args.seed)?);
        setup_s.push(start.elapsed().as_secs_f64());
    }
    let wl = built.expect("at least one set-up");
    let setup_s = stats::median(&setup_s).expect("set-up samples");

    let mut tracer = args.trace.then(|| Tracer::new(&wl));
    let r = replay::run(&wl, args.seconds, tracer.as_mut())?;
    let peak_rss_mb = stats::peak_rss_mib().ok_or("cannot read the peak resident set")?;

    let attempted = r.predicts + r.adapt_ops;
    let failed = r.adapt_failed;
    let steal = r
        .host_steal
        .map_or("unknown".to_string(), |s| format!("{:.1}%", s * 100.0));
    println!(
        "{} seed {}: {} timed predict windows; predict attempted {} failed 0; adapt attempted {} failed {}; host steal {steal}",
        args.kind.name(),
        args.seed,
        r.windows,
        r.predicts,
        r.adapt_ops,
        r.adapt_failed
    );
    let e2e = [
        ("predict_rows_per_s", "rows/s", r.rows_per_s),
        ("predict_p50_ms", "ms", r.p50_ms),
        ("predict_p90_ms", "ms", r.p90_ms),
        ("adapt_p50_s", "s", r.adapt_p50_s),
        ("err_ratio", "ratio", r.err_ratio),
        ("peak_rss_mb", "MiB", peak_rss_mb),
        ("setup_s", "s", setup_s),
    ];
    let Some(mut tracer) = tracer else {
        return Ok(json_line(attempted, failed, &e2e));
    };

    // Traced run: the end-to-end figures (with tracing on) go to the table
    // file for the overhead comparison; the result line holds the layers.
    tracer.probe_rehydrate();
    let layers: Vec<Metric> = tracer.metrics(&r.prefix, r.segmented);
    let lines = tracer.finish_trace();
    let mut table = format!(
        "# {} seed {} (traced)\n\nhost cpus: {}\n\n| metric | unit | value | samples |\n|---|---|---|---|\n",
        args.kind.name(),
        args.seed,
        tasfar_obs::host_cpus()
    );
    for (name, unit, value) in &e2e {
        let _ = writeln!(table, "| {name} (traced) | {unit} | {value:.6} | |");
    }
    for m in &layers {
        let _ = writeln!(
            table,
            "| {} | {} | {:.6} | {} |",
            m.name, m.unit, m.value, m.samples
        );
    }
    let dir = std::path::Path::new("e2ebench/out");
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let stem = format!("{}-seed{}", args.kind.name(), args.seed);
    let mut trace = lines.join("\n");
    trace.push('\n');
    for (file, text) in [
        (format!("{stem}.trace.jsonl"), trace),
        (format!("{stem}.layers.md"), table.clone()),
    ] {
        let path = dir.join(file);
        std::fs::write(&path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    print!("{table}");
    let metrics: Vec<(&str, &str, f64)> =
        layers.iter().map(|m| (m.name, m.unit, m.value)).collect();
    Ok(json_line(attempted, failed, &metrics))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            eprintln!("usage: e2ebench --workload <adapt-walkers|serve-walkers|serve-churn> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("e2ebench: check failed: {e}");
            std::process::exit(1);
        }
    }
}
