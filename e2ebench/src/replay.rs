//! The closed-loop client: one load-generating thread drives one
//! `ServeWorker` synchronously with `process_next`.
//!
//! Per window the client submits every predict request and the adapt ops
//! due, then calls `process_next` until the queue is empty: predicts drain
//! first as one fused batch of the whole window, then each adapt op in its
//! own call. Warm-up windows run before timing starts; the run then times
//! whole rounds until `--seconds` have passed and at least 100 predict
//! windows were served.
//!
//! Every check runs outside the timed spans, and a failed check ends the
//! run with an error.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::Instant;

use tasfar_nn::rng::Rng;
use tasfar_nn::spec::DeltaArtifact;
use tasfar_nn::tensor::Tensor;
use tasfar_obs::metrics::Counter;
use tasfar_serve::{hash_tensor_bits, CompletionKind, ServeRuntime, ServeWorker, ServedVia};

use crate::layers::{PrefixCounts, Tracer};
use crate::stats::{cpu_ticks, median, percentile};
use crate::workload::{parse_cold, Window, Workload, WINDOW};

/// Windows per block of the p90 figure: a block's 90th percentile has 10
/// windows beyond it.
const P90_BLOCK: usize = 100;

/// Requests per window whose fused output is compared bit for bit with a
/// solo serve on a second worker.
const SOLO_SAMPLES: usize = 4;

/// The check runtime's tenant that holds the delta under check, so that
/// runtime holds one delta however many tenants the run samples.
const CHECK_DELTA_TENANT: u64 = u64::MAX - 1;

/// The check runtime's tenant that never holds a delta.
const CHECK_SOURCE_TENANT: u64 = u64::MAX;

/// What one run measured.
pub struct RunResult {
    /// Predicted rows per second of the timed predict phase: the timed
    /// windows' rows over the sum, across those windows, of the time from
    /// the window's first submit to the end of its batch.
    pub rows_per_s: f64,
    /// Median predict submit-to-completion time, ms.
    pub p50_ms: f64,
    /// 90th percentile of the same, ms: the median, over consecutive
    /// blocks of [`P90_BLOCK`] timed windows, of each block's 90th
    /// percentile, so a host stall that hits a few blocks does not set the
    /// run's tail.
    pub p90_ms: f64,
    /// Median adapt-op service time, s.
    pub adapt_p50_s: f64,
    /// Error with each target's delta over the source model's error, on
    /// the prefix rounds' served rows.
    pub err_ratio: f64,
    /// Timed predict windows.
    pub windows: usize,
    /// Timed adapt ops.
    pub adapt_ops: usize,
    /// Timed predict requests attempted.
    pub predicts: usize,
    /// Timed adapt ops that fell back to the source model.
    pub adapt_failed: usize,
    /// Counts over the prefix rounds.
    pub prefix: PrefixCounts,
    /// Whether the worker takes the segmented fused path.
    pub segmented: bool,
    /// Share of the machine's CPU time stolen by the hypervisor while the
    /// rounds were timed, when the host reports it.
    pub host_steal: Option<f64>,
}

/// The client's view of the runtime under test.
struct Client {
    rt: Arc<ServeRuntime>,
    worker: ServeWorker,
    check_rt: Arc<ServeRuntime>,
    check: ServeWorker,
    /// Each tenant's delta as the registry holds it after the tenant's
    /// latest adapt op.
    adapted: HashMap<u64, Arc<DeltaArtifact>>,
    /// Tenants any request or op has touched.
    touched: HashSet<u64>,
    /// Picks the requests of each window checked against a solo serve.
    sample_rng: Rng,
    /// The guard's process-wide retry and fall-back counters, read around
    /// each `process_next` to attribute the engine's own counts to its
    /// adapt ops.
    guard_retries: Arc<Counter>,
    guard_fallbacks: Arc<Counter>,
}

impl Client {
    fn new(wl: &Workload, rt: Arc<ServeRuntime>) -> Client {
        let worker = rt.worker(wl.seed ^ 0x3011);
        let check_rt = wl.check_runtime();
        let check = check_rt.worker(wl.seed ^ 0x501);
        Client {
            rt,
            worker,
            check_rt,
            check,
            adapted: HashMap::new(),
            touched: HashSet::new(),
            sample_rng: Rng::new(wl.seed ^ 0x5A3B1E),
            guard_retries: tasfar_obs::metrics::counter("guard.retries"),
            guard_fallbacks: tasfar_obs::metrics::counter("guard.fallbacks"),
        }
    }

    /// End-of-run checks: rehydrations cover every tenant first looked up
    /// while cold, and the shadow registry saw exactly what the real one
    /// did.
    fn close(&self, wl: &Workload, tracer: Option<&Tracer>) -> Result<(), String> {
        let stats = self.rt.registry().stats();
        let cold_first = if wl.cold.is_empty() {
            0
        } else {
            self.touched.len() as u64
        };
        if stats.rehydrations < cold_first {
            return Err(format!(
                "{} rehydrations for {cold_first} tenants first looked up while cold",
                stats.rehydrations
            ));
        }
        if let Some(t) = tracer {
            let shadow = t.shadow_stats();
            if shadow != stats {
                return Err(format!(
                    "shadow registry diverged: {shadow:?} vs runtime {stats:?}"
                ));
            }
        }
        Ok(())
    }
}

/// What the run accumulates: timings over the timed windows, error sums
/// and counts over the prefix rounds.
#[derive(Default)]
struct Tally {
    /// Rows of the timed predict phases.
    predict_rows: usize,
    /// Seconds of the timed predict phases, each from the window's first
    /// submit to the end of its batch.
    predict_s: f64,
    lat_ms: Vec<f64>,
    adapt_s: Vec<f64>,
    windows: usize,
    adapt_failed: usize,
    err_adapted: f64,
    err_source: f64,
    err_rows: usize,
    prefix: PrefixCounts,
}

/// Replays the workload's windows against its runtime.
pub fn run(
    wl: &Workload,
    seconds: f64,
    mut tracer: Option<&mut Tracer>,
) -> Result<RunResult, String> {
    let source_pred = wl.task.source.clone().predict(&wl.task.x);
    let cold: Vec<Arc<DeltaArtifact>> = wl.cold.iter().map(|j| Arc::new(parse_cold(j))).collect();
    let mut client = Client::new(wl, Arc::clone(&wl.runtime));
    let segmented = client.worker.is_segmented();

    let (warm, round) = (wl.warmup(), wl.round_len());
    let mut tally = Tally::default();
    let mut prefix_start = None;
    let mut started: Option<Instant> = None;
    let mut ticks_at_start = None;
    let mut i = 0usize;
    loop {
        let mut in_prefix = false;
        if i >= warm {
            let r = (i - warm) / round;
            in_prefix = r < wl.prefix_rounds();
            if (i - warm).is_multiple_of(round) {
                if r == wl.prefix_rounds() {
                    let stats = client.rt.registry().stats();
                    let (reh, ev) = prefix_start.expect("prefix started");
                    tally.prefix.rehydrations = stats.rehydrations - reh;
                    tally.prefix.evictions = stats.evictions - ev;
                    tally.prefix.resident_bytes = stats.resident_bytes;
                }
                let elapsed = started.map_or(0.0, |s| s.elapsed().as_secs_f64());
                if r >= wl.prefix_rounds() && elapsed >= seconds {
                    break;
                }
                if r == 0 {
                    let stats = client.rt.registry().stats();
                    prefix_start = Some((stats.rehydrations, stats.evictions));
                    started = Some(Instant::now());
                    ticks_at_start = cpu_ticks();
                }
            }
        }
        let timed = i >= warm;
        let window = wl.window(i);
        let ctx = WindowCtx {
            wl,
            cold: &cold,
            source_pred: &source_pred,
            timed,
            in_prefix,
        };
        ctx.serve(&window, &mut client, tracer.as_deref_mut(), &mut tally)?;
        i += 1;
    }
    let host_steal = ticks_at_start
        .zip(cpu_ticks())
        .map(|((t0, s0), (t1, s1))| (s1 - s0) as f64 / (t1 - t0).max(1) as f64);
    client.close(wl, tracer.as_deref())?;

    let adapt_p50_s = median(&tally.adapt_s).ok_or("no adapt op was timed")?;
    let p50_ms = percentile(&tally.lat_ms, 0.5).ok_or("no predict was timed")?;
    let block = P90_BLOCK * WINDOW;
    let block_p90: Vec<f64> = tally
        .lat_ms
        .chunks_exact(block)
        .map(|b| percentile(b, 0.9).expect("a full block"))
        .collect();
    let p90_ms = median(&block_p90).ok_or("fewer than one block of predict windows")?;
    let measure = wl.task.measure;
    let err_ratio = measure.finish(tally.err_adapted, tally.err_rows)
        / measure.finish(tally.err_source, tally.err_rows);
    if !err_ratio.is_finite() || err_ratio <= 0.0 {
        return Err(format!("error ratio {err_ratio} is not a positive number"));
    }
    Ok(RunResult {
        rows_per_s: tally.predict_rows as f64 / tally.predict_s,
        p50_ms,
        p90_ms,
        adapt_p50_s,
        err_ratio,
        windows: tally.windows,
        adapt_ops: tally.adapt_s.len(),
        predicts: tally.lat_ms.len(),
        adapt_failed: tally.adapt_failed,
        prefix: tally.prefix,
        segmented,
        host_steal,
    })
}

/// What serving one window needs besides the client.
struct WindowCtx<'a> {
    wl: &'a Workload,
    /// Parsed cold artifact of each group.
    cold: &'a [Arc<DeltaArtifact>],
    /// The frozen source model's direct predictions for every request row.
    source_pred: &'a Tensor,
    timed: bool,
    in_prefix: bool,
}

impl WindowCtx<'_> {
    /// The delta the tenant should be served with, if any.
    fn expected(&self, client: &Client, tenant: u64) -> Option<Arc<DeltaArtifact>> {
        client
            .adapted
            .get(&tenant)
            .cloned()
            .or_else(|| self.cold.get(self.wl.group_of(tenant)).cloned())
    }

    /// Serves one window: submit, drain, check.
    fn serve(
        &self,
        w: &Window,
        client: &mut Client,
        mut tracer: Option<&mut Tracer>,
        tally: &mut Tally,
    ) -> Result<(), String> {
        let task = &self.wl.task;
        let inputs: Vec<Tensor> = w
            .reqs
            .iter()
            .map(|&(_, r)| task.x.slice_rows(r, r + 1))
            .collect();
        let adapt_inputs: Vec<Tensor> = w.adapts.iter().map(|op| op.x.clone()).collect();
        let mut slot_of: HashMap<u64, usize> = HashMap::with_capacity(w.reqs.len());
        let mut submitted: Vec<Instant> = Vec::new();

        // ---- timed: submit the window, then drain ----
        let t0 = Instant::now();
        for (k, (&(tenant, _), x)) in w.reqs.iter().zip(inputs).enumerate() {
            let admitted = match tracer.as_deref_mut() {
                Some(t) => {
                    submitted.push(Instant::now());
                    t.submit(self.timed, || client.rt.submit_predict(tenant, x))
                }
                None => client.rt.submit_predict(tenant, x),
            };
            let id =
                admitted.map_err(|e| format!("predict for tenant {tenant} not admitted: {e}"))?;
            slot_of.insert(id, k);
        }
        let mut adapt_of: HashMap<u64, usize> = HashMap::new();
        for (k, (op, x)) in w.adapts.iter().zip(adapt_inputs).enumerate() {
            let id = client
                .rt
                .submit_adapt(op.tenant, x)
                .map_err(|e| format!("adapt for tenant {} not admitted: {e}", op.tenant))?;
            adapt_of.insert(id, k);
        }
        let mut outputs: Vec<Option<(Tensor, ServedVia, u64)>> = Vec::new();
        outputs.resize_with(w.reqs.len(), || None);
        let mut batches = 0usize;
        let mut adapts_done = 0usize;
        loop {
            let guard_before = (client.guard_retries.get(), client.guard_fallbacks.get());
            let taken = Instant::now();
            let done = client.worker.process_next();
            let finished = Instant::now();
            // ---- untimed from here to the next process_next ----
            if done.is_empty() {
                break;
            }
            let retries = client.guard_retries.get() - guard_before.0;
            let fallbacks = client.guard_fallbacks.get() - guard_before.1;
            let service_s = (finished - taken).as_secs_f64();
            if matches!(done[0].kind, CompletionKind::Predict { .. }) {
                batches += 1;
                if self.timed {
                    tally.predict_rows += done.len();
                    tally.predict_s += (finished - t0).as_secs_f64();
                    tally.windows += 1;
                }
                for c in done {
                    let CompletionKind::Predict { output, via } = c.kind else {
                        return Err("a predict batch held a non-predict completion".into());
                    };
                    let k = slot_of
                        .remove(&c.id)
                        .ok_or_else(|| format!("completion {} is unknown or repeated", c.id))?;
                    if c.tenant != w.reqs[k].0 {
                        return Err(format!("completion {} carries the wrong tenant", c.id));
                    }
                    if self.timed {
                        tally.lat_ms.push(c.latency_ns as f64 / 1e6);
                    }
                    outputs[k] = Some((output, via, c.id));
                }
                if let Some(t) = tracer.as_deref_mut() {
                    // The first cold artifact of the window, for the decode
                    // timing.
                    let cold_json = w.reqs.iter().find_map(|&(tenant, _)| {
                        if client.adapted.contains_key(&tenant) {
                            t.json_of(tenant)
                        } else {
                            self.wl.cold.get(self.wl.group_of(tenant)).cloned()
                        }
                    });
                    t.window(
                        self.wl,
                        &w.reqs,
                        &submitted,
                        taken,
                        service_s * 1e3,
                        cold_json,
                        self.timed,
                    );
                }
                self.check_outputs(w, client, &outputs, tally)?;
            } else {
                if done.len() != 1 {
                    return Err(format!("one admin call completed {} ops", done.len()));
                }
                for c in done {
                    let CompletionKind::Adapt { outcome } = c.kind else {
                        return Err("an admin completion other than adapt".into());
                    };
                    let k = adapt_of.remove(&c.id).ok_or_else(|| {
                        format!("adapt completion {} is unknown or repeated", c.id)
                    })?;
                    let tenant = w.adapts[k].tenant;
                    adapts_done += 1;
                    let failed = outcome == "fell_back";
                    // The completion's label must agree with the guard's
                    // counts over the call that ran the op.
                    let agrees = match outcome {
                        "adapted" => retries == 0 && fallbacks == 0,
                        "recovered" => retries > 0 && fallbacks == 0,
                        "fell_back" => fallbacks == 1,
                        _ => false,
                    };
                    if !agrees {
                        return Err(format!(
                            "adapt for tenant {tenant} reported {outcome:?} with {retries} retries and {fallbacks} fall-backs"
                        ));
                    }
                    if self.in_prefix {
                        tally.prefix.retries += retries;
                        tally.prefix.fallbacks += fallbacks;
                    }
                    if self.timed {
                        tally.adapt_s.push(service_s);
                        tally.adapt_failed += usize::from(failed);
                    }
                    let prior = self.expected(client, tenant);
                    let after = client.rt.registry().clone_artifact(tenant).map(Arc::new);
                    if let Some(t) = tracer.as_deref_mut() {
                        t.adapt_op(
                            tenant,
                            &w.adapts[k].x,
                            prior.as_deref(),
                            after.as_deref(),
                            self.timed,
                            self.in_prefix,
                        );
                    }
                    client.touched.insert(tenant);
                    if let Some(a) = after {
                        client.adapted.insert(tenant, a);
                    }
                }
            }
        }
        if !slot_of.is_empty() || !adapt_of.is_empty() {
            return Err(format!(
                "{} predicts and {} adapt ops never completed",
                slot_of.len(),
                adapt_of.len()
            ));
        }
        for (output, _, _) in outputs.into_iter().flatten() {
            client.worker.recycle(output);
        }
        if batches != usize::from(!w.reqs.is_empty()) || adapts_done != w.adapts.len() {
            return Err(format!(
                "a window of {} predicts drained in {batches} batches",
                w.reqs.len()
            ));
        }

        let resident = client.rt.registry().stats().resident_bytes;
        if resident > self.wl.budget() {
            return Err(format!(
                "{resident} resident bytes exceed the {} byte budget",
                self.wl.budget()
            ));
        }
        let tenants: HashSet<u64> = w.reqs.iter().map(|&(t, _)| t).collect();
        if self.in_prefix && !w.reqs.is_empty() {
            tally.prefix.tenants.push(tenants.len() as f64);
            tally.prefix.rows.push(w.reqs.len() as f64);
        }
        client.touched.extend(tenants);
        Ok(())
    }

    /// Checks one window's predict outputs, before the window's adapt ops
    /// run (they change the deltas the outputs were served with).
    fn check_outputs(
        &self,
        w: &Window,
        client: &mut Client,
        outputs: &[Option<(Tensor, ServedVia, u64)>],
        tally: &mut Tally,
    ) -> Result<(), String> {
        let task = &self.wl.task;
        // Every output: one row of the label width, finite, served with the
        // tenant's delta exactly when the tenant holds one.
        let width = task.y.cols();
        for (k, out) in outputs.iter().enumerate() {
            let (tenant, row) = w.reqs[k];
            let (output, via, id) = out.as_ref().expect("every slot completed");
            if output.shape() != (1, width) || output.as_slice().iter().any(|v| !v.is_finite()) {
                return Err(format!(
                    "completion {id}: output {:?} is not one finite row of width {width}",
                    output.shape()
                ));
            }
            let want = if self.expected(client, tenant).is_some() {
                ServedVia::Delta
            } else {
                ServedVia::Source
            };
            if *via != want {
                return Err(format!(
                    "tenant {tenant} served via {via:?}, expected {want:?}"
                ));
            }
            if self.in_prefix {
                tally.err_adapted += task.measure.row(output.as_slice(), task.y.row(row));
                tally.err_source += task.measure.row(self.source_pred.row(row), task.y.row(row));
                tally.err_rows += 1;
            }
        }

        // A seeded sample of requests: the fused output must be bit-identical
        // to a solo serve of the same request on a second worker holding the
        // same delta.
        for _ in 0..SOLO_SAMPLES.min(w.reqs.len()) {
            let k = client.sample_rng.below(w.reqs.len());
            let (tenant, row) = w.reqs[k];
            let check_tenant = match self.expected(client, tenant) {
                Some(a) => {
                    client
                        .check_rt
                        .registry()
                        .insert_resident(CHECK_DELTA_TENANT, (*a).clone());
                    CHECK_DELTA_TENANT
                }
                None => CHECK_SOURCE_TENANT,
            };
            let (solo, via) = client
                .check
                .serve_solo(check_tenant, &task.x.slice_rows(row, row + 1));
            let (fused, fused_via, id) = outputs[k].as_ref().expect("every slot completed");
            if hash_tensor_bits(&solo) != hash_tensor_bits(fused) || via != *fused_via {
                return Err(format!(
                    "completion {id} (tenant {tenant}) differs from its solo serve"
                ));
            }
            client.check.recycle(solo);
        }

        Ok(())
    }
}
