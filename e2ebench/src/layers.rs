//! The traced run's per-layer metrics, taken by timing calls into each
//! module's public functions from this file, each inside a `tasfar_obs`
//! span.
//!
//! The serving engine's own calls cannot be timed from outside it, so each
//! call is replayed beside it, outside the client's timed spans:
//!
//! - a *shadow* [`TenantRegistry`] with the runtime's shards and budget
//!   receives exactly the calls the runtime's registry receives, in the same
//!   order, so its lookups rehydrate and evict exactly when the real ones
//!   do; its [`RegistryStats`] must equal the real registry's at the end;
//! - a *replica* model from [`TenantSession::prepare_shared`] runs each
//!   window's forward and each adapt batch's pipeline stages.
//!
//! Counts are taken over the workload's fixed prefix of rounds, so they
//! repeat exactly for one seed however long the run lasts.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::Instant;

use tasfar_core::adapt::{SourceCalibration, TasfarConfig};
use tasfar_core::pipeline::{
    estimate_density_stage, finetune_stage, predict_stage, pseudo_label_stage, split_stage,
    PipelineTrace,
};
use tasfar_core::session::TenantSession;
use tasfar_nn::layers::{Layer, SegmentSpan, Sequential};
use tasfar_nn::loss::Mse;
use tasfar_nn::model::{CheckpointRegressor, Regressor, SeqCheckpoint};
use tasfar_nn::rng::Rng;
use tasfar_nn::scratch::Scratch;
use tasfar_nn::spec::DeltaArtifact;
use tasfar_nn::tensor::Tensor;
use tasfar_serve::registry::{RegistryStats, Residency, TenantRegistry};

use crate::stats::{mean, median};
use crate::workload::Workload;

/// A per-layer metric as printed.
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Value.
    pub value: f64,
    /// Samples behind a timing (0 for counts).
    pub samples: usize,
}

/// Runs `f` inside a span named `name` and returns its result with the
/// wall time in nanoseconds.
fn timed<R>(name: &str, f: impl FnOnce() -> R) -> (R, f64) {
    let span = tasfar_obs::span(name);
    let start = Instant::now();
    let r = f();
    let ns = start.elapsed().as_nanos() as f64;
    drop(span);
    (r, ns)
}

/// Counts over the prefix rounds.
#[derive(Default)]
struct Counts {
    uncertain_rows: usize,
    informative_labels: usize,
    epochs: usize,
}

/// The traced run's state beside the client.
pub struct Tracer {
    memory: tasfar_obs::MemorySink,
    session: TenantSession,
    calib: SourceCalibration,
    cfg: TasfarConfig,
    shadow: TenantRegistry,
    replica: Sequential,
    init: SeqCheckpoint,
    scratch: Scratch,
    rng: Rng,
    /// Serialized form of every tenant delta an adapt op produced.
    json: HashMap<u64, Arc<str>>,
    cold_kb: Option<f64>,
    /// Timing samples by metric name, in the metric's unit.
    samples: BTreeMap<&'static str, Vec<f64>>,
    counts: Counts,
}

impl Tracer {
    /// Starts tracing into memory and builds the shadow registry and the
    /// replica.
    pub fn new(wl: &Workload) -> Tracer {
        let memory = tasfar_obs::capture();
        let session = wl.task.session();
        let mut rng = Rng::new(wl.seed ^ 0x7E91CA);
        let (replica, init) = session.prepare_shared(&wl.task.source, &mut rng);
        Tracer {
            memory,
            session,
            calib: wl.task.calib.clone(),
            cfg: wl.task.cfg.clone(),
            shadow: wl.shadow_registry(),
            replica,
            init,
            scratch: Scratch::new(),
            rng,
            json: HashMap::new(),
            cold_kb: wl.cold.first().map(|j| j.len() as f64 / 1024.0),
            samples: BTreeMap::new(),
            counts: Counts::default(),
        }
    }

    fn record(&mut self, name: &'static str, value: f64) {
        self.samples.entry(name).or_default().push(value);
    }

    /// The shadow registry's stats, which must equal the runtime's.
    pub fn shadow_stats(&self) -> RegistryStats {
        self.shadow.stats()
    }

    /// Times one `ServeRuntime::submit_predict`-like call.
    pub fn submit<R>(&mut self, record: bool, f: impl FnOnce() -> R) -> R {
        let (r, ns) = timed("bench.queue.submit", f);
        if record {
            self.record("queue.submit_us", ns / 1e3);
        }
        r
    }

    /// Replays one predict window's registry lookups, delta checks and
    /// forward beside the engine. `submitted` holds each request's submit
    /// instant, `taken` the start of the `process_next` that took them,
    /// `window_ms` that call's duration, and `cold_json` the serialized
    /// delta of the window's first tenant that has one.
    #[allow(clippy::too_many_arguments)]
    pub fn window(
        &mut self,
        wl: &Workload,
        reqs: &[(u64, usize)],
        submitted: &[Instant],
        taken: Instant,
        window_ms: f64,
        cold_json: Option<Arc<str>>,
        record: bool,
    ) {
        // The engine's grouping: tenants in first-appearance order.
        let mut order: Vec<u64> = Vec::new();
        let mut group_of: HashMap<u64, usize> = HashMap::new();
        let mut members: Vec<Vec<usize>> = Vec::new();
        for (k, &(tenant, _)) in reqs.iter().enumerate() {
            let g = *group_of.entry(tenant).or_insert_with(|| {
                order.push(tenant);
                members.push(Vec::new());
                order.len() - 1
            });
            members[g].push(k);
        }

        let mut registry_ns = 0.0;
        let mut handles = Vec::with_capacity(order.len());
        for &tenant in &order {
            let ((handle, residency), ns) = timed("bench.registry.artifact_handle", || {
                self.shadow.artifact_handle(tenant)
            });
            registry_ns += ns;
            if record {
                match residency {
                    Residency::Resident => self.record("registry.lookup_us", ns / 1e3),
                    Residency::Rehydrated => self.record("registry.rehydrate_us", ns / 1e3),
                    Residency::SourceOnly => {}
                }
            }
            handles.push(handle);
        }

        for handle in handles.iter().flatten() {
            let replica = &mut self.replica;
            let (ok, ns) = timed("bench.spec.check", || handle.check(replica));
            assert!(ok.is_ok(), "a tenant delta failed its check: {ok:?}");
            if record {
                self.record("spec.check_us", ns / 1e3);
            }
        }

        // The window's rows stacked group-contiguously, as the engine
        // stacks them.
        let x = &wl.task.x;
        let rows: Vec<Tensor> = members
            .iter()
            .flatten()
            .map(|&k| x.slice_rows(reqs[k].1, reqs[k].1 + 1))
            .collect();
        let forward_ns = if self.replica.supports_segmented() {
            let stacked = Tensor::vstack(&rows.iter().collect::<Vec<_>>());
            let segments: Vec<SegmentSpan<'_>> = members
                .iter()
                .zip(&handles)
                .map(|(m, h)| SegmentSpan {
                    rows: m.len(),
                    delta: h.as_deref(),
                })
                .collect();
            let (replica, scratch) = (&mut self.replica, &mut self.scratch);
            let (out, ns) = timed("bench.layers.forward", || {
                replica.predict_segmented_scratch(&stacked, &segments, scratch)
            });
            self.scratch.give(out);
            ns
        } else {
            let refs: Vec<&Tensor> = rows.iter().collect();
            let (replica, scratch) = (&mut self.replica, &mut self.scratch);
            let (outs, ns) = timed("bench.layers.forward", || {
                replica.predict_many_scratch(&refs, scratch)
            });
            for t in outs {
                self.scratch.give(t);
            }
            ns
        };

        if !record {
            return;
        }
        if let Some(json) = cold_json {
            let (parsed, ns) = timed("bench.spec.from_json", || DeltaArtifact::from_json(&json));
            assert!(parsed.is_ok(), "a serialized tenant delta failed to parse");
            self.record("spec.decode_us", ns / 1e3);
        }
        for s in submitted {
            self.record("queue.wait_ms", (taken - *s).as_secs_f64() * 1e3);
        }
        let forward_ms = forward_ns / 1e6;
        self.record("layers.forward_ms", forward_ms);
        self.record("engine.window_ms", window_ms);
        self.record(
            "engine.overhead_ms",
            window_ms - forward_ms - registry_ns / 1e6,
        );
    }

    /// The serialized form of a delta an adapt op produced for `tenant`.
    pub fn json_of(&self, tenant: u64) -> Option<Arc<str>> {
        self.json.get(&tenant).cloned()
    }

    /// Replays one adapt op beside the engine: the registry calls it made
    /// (and the client's read of the result), the encode of its delta, the
    /// five pipeline stages and the capture on the replica, and one guarded
    /// `TenantSession::adapt_delta`, timed only: the guard's counts come
    /// from the engine's own run (see [`PrefixCounts`]). `prior` is the
    /// tenant's delta before the op, `after` the one the registry holds
    /// after it.
    pub fn adapt_op(
        &mut self,
        tenant: u64,
        x: &Tensor,
        prior: Option<&DeltaArtifact>,
        after: Option<&DeltaArtifact>,
        record: bool,
        count: bool,
    ) {
        let _ = self.shadow.clone_artifact(tenant);
        if let Some(a) = after {
            let a = a.clone();
            let shadow = &self.shadow;
            let ((), ns) = timed("bench.registry.insert_resident", || {
                shadow.insert_resident(tenant, a)
            });
            if record {
                self.record("registry.insert_us", ns / 1e3);
            }
        }
        let _ = self.shadow.clone_artifact(tenant);

        if let Some(a) = after {
            let (json, ns) = timed("bench.spec.to_json", || a.to_json());
            self.cold_kb.get_or_insert(json.len() as f64 / 1024.0);
            self.json.insert(tenant, Arc::from(json.as_str()));
            if record {
                self.record("spec.encode_us", ns / 1e3);
            }
        }

        self.stages(x, prior, record, count);

        let (session, replica, init, rng) =
            (&self.session, &mut self.replica, &self.init, &mut self.rng);
        let (_, ns) = timed("bench.session.adapt_delta", || {
            session.adapt_delta(replica, init, tenant, prior, x, &Mse, rng)
        });
        if record {
            self.record("session.adapt_ms", ns / 1e6);
        }
    }

    /// The five public stage functions in `adapt`'s order, then the delta
    /// capture, on the replica warm-started from `prior`.
    fn stages(&mut self, x: &Tensor, prior: Option<&DeltaArtifact>, record: bool, count: bool) {
        self.replica.restore(&self.init);
        if let Some(p) = prior {
            p.try_apply(&mut self.replica, &mut self.rng)
                .expect("the tenant's prior delta fits the replica");
        }
        let (cfg, calib) = (&self.cfg, &self.calib);
        let mut trace = PipelineTrace::default();
        // (metric, value in the metric's unit)
        let mut times: Vec<(&'static str, f64)> = Vec::new();
        let replica = &mut self.replica;

        let (mc, ns) = timed("bench.pipeline.predict", || {
            predict_stage(replica, x, cfg, &mut trace)
        });
        times.push(("pipeline.predict_ms", ns / 1e6));
        let result = mc.and_then(|mc| {
            let (split, ns) = timed("bench.pipeline.split", || {
                split_stage(calib, cfg, &mc, &mut trace)
            });
            times.push(("pipeline.split_ms", ns / 1e6));
            let (classifier, split) = split?;
            let (density, ns) = timed("bench.pipeline.density", || {
                estimate_density_stage(&mc, calib, &classifier, &split, cfg, &mut trace)
            });
            times.push(("pipeline.density_ms", ns / 1e6));
            let density = density?;
            let (pseudo, ns) = timed("bench.pipeline.pseudo_label", || {
                pseudo_label_stage(&mc, &split, &density, cfg, &mut trace)
            });
            times.push(("pipeline.pseudo_label_ms", ns / 1e6));
            let pseudo = pseudo?;
            let (fit, ns) = timed("bench.pipeline.finetune", || {
                finetune_stage(replica, x, &mc, &split, &pseudo, &Mse, cfg, &mut trace)
            });
            times.push(("pipeline.finetune_ms", ns / 1e6));
            Ok((split.uncertain.len(), pseudo, fit?))
        });
        if let Ok((uncertain, pseudo, fit)) = &result {
            let adapter = *self.session.adapter_config();
            let replica = &mut self.replica;
            let (_, ns) = timed("bench.spec.capture", || {
                DeltaArtifact::capture(replica, &adapter)
            });
            times.push(("spec.capture_us", ns / 1e3));
            if count {
                self.counts.uncertain_rows += uncertain;
                self.counts.informative_labels += pseudo.iter().filter(|p| p.informative).count();
                self.counts.epochs += fit.epoch_losses.len();
            }
        }
        self.replica.restore(&self.init);
        if record {
            for (name, value) in times {
                self.record(name, value);
            }
        }
    }

    /// On a workload whose traffic never rehydrates, times one rehydration
    /// of every delta an adapt op produced (evict, then look up), so
    /// `registry.rehydrate_us` is measured on the workload's own deltas.
    /// Runs after the shadow's stats were compared with the runtime's.
    pub fn probe_rehydrate(&mut self) {
        if self.samples.contains_key("registry.rehydrate_us") {
            return;
        }
        let mut tenants: Vec<u64> = self.json.keys().copied().collect();
        tenants.sort_unstable();
        for t in tenants {
            self.shadow.evict(t, "probe");
            let ((_, residency), ns) = timed("bench.registry.artifact_handle", || {
                self.shadow.artifact_handle(t)
            });
            assert_eq!(residency, Residency::Rehydrated, "probe must rehydrate");
            self.record("registry.rehydrate_us", ns / 1e3);
        }
    }

    /// Stops tracing and returns the captured trace lines.
    pub fn finish_trace(&self) -> Vec<String> {
        tasfar_obs::disable();
        self.memory.lines()
    }

    /// The per-layer table. `prefix` holds the counts the client took over
    /// the prefix rounds.
    pub fn metrics(&self, prefix: &PrefixCounts, segmented: bool) -> Vec<Metric> {
        let p50 = |name: &'static str, unit: &'static str| Metric {
            name,
            unit,
            value: self
                .samples
                .get(name)
                .and_then(|s| median(s))
                .unwrap_or(0.0),
            samples: self.samples.get(name).map_or(0, Vec::len),
        };
        let count = |name: &'static str, unit: &'static str, value: f64| Metric {
            name,
            unit,
            value,
            samples: 0,
        };
        vec![
            p50("queue.submit_us", "us"),
            p50("queue.wait_ms", "ms"),
            p50("registry.lookup_us", "us"),
            p50("registry.rehydrate_us", "us"),
            p50("registry.insert_us", "us"),
            count("registry.rehydrations", "count", prefix.rehydrations as f64),
            count("registry.evictions", "count", prefix.evictions as f64),
            count(
                "registry.resident_mb",
                "MiB",
                prefix.resident_bytes as f64 / (1 << 20) as f64,
            ),
            p50("spec.decode_us", "us"),
            p50("spec.encode_us", "us"),
            count("spec.cold_kb", "KiB", self.cold_kb.unwrap_or(0.0)),
            p50("spec.check_us", "us"),
            p50("spec.capture_us", "us"),
            p50("engine.window_ms", "ms"),
            p50("engine.overhead_ms", "ms"),
            count("engine.tenants_per_window", "count", mean(&prefix.tenants)),
            count("engine.rows_per_window", "count", mean(&prefix.rows)),
            count("engine.segmented", "0/1", f64::from(u8::from(segmented))),
            p50("layers.forward_ms", "ms"),
            p50("pipeline.predict_ms", "ms"),
            p50("pipeline.split_ms", "ms"),
            p50("pipeline.density_ms", "ms"),
            p50("pipeline.pseudo_label_ms", "ms"),
            p50("pipeline.finetune_ms", "ms"),
            count(
                "pipeline.uncertain_rows",
                "count",
                self.counts.uncertain_rows as f64,
            ),
            count(
                "pipeline.informative_labels",
                "count",
                self.counts.informative_labels as f64,
            ),
            count("pipeline.epochs", "count", self.counts.epochs as f64),
            p50("session.adapt_ms", "ms"),
            count("guard.retries", "count", prefix.retries as f64),
            count("guard.fallbacks", "count", prefix.fallbacks as f64),
        ]
    }
}

/// Counts the client takes over the prefix rounds, identical in traced and
/// untraced runs.
#[derive(Default)]
pub struct PrefixCounts {
    /// Rehydrations during the prefix.
    pub rehydrations: u64,
    /// Evictions during the prefix.
    pub evictions: u64,
    /// Resident delta bytes when the prefix ends.
    pub resident_bytes: u64,
    /// Distinct tenants of each predict window.
    pub tenants: Vec<f64>,
    /// Rows of each predict window.
    pub rows: Vec<f64>,
    /// Retries the engine's guarded adaptations spent during the prefix.
    pub retries: u64,
    /// The engine's adapt ops that fell back to the source model during
    /// the prefix.
    pub fallbacks: u64,
}
