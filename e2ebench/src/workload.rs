//! The three workloads: their set-up (world, source model, calibration,
//! runtime and registry population) and the deterministic sequence of
//! windows the load generator submits.
//!
//! A window is what the single closed-loop client submits before it drains
//! the worker: up to [`WINDOW`] one-row predict requests plus any adapt ops
//! due. Its composition is a function of the workload seed and the window
//! index only, never of timing.

use std::sync::Arc;

use tasfar_bench::tasks::{pdr_model, pdr_tasfar_config, taxi_context_seeded, Scale};
use tasfar_core::adapt::{calibrate_on_source, SourceCalibration, TasfarConfig};
use tasfar_core::session::TenantSession;
use tasfar_data::pdr::{self, PdrConfig, PdrUser};
use tasfar_data::{Dataset, Scaler};
use tasfar_nn::adapter::AdapterConfig;
use tasfar_nn::layers::Sequential;
use tasfar_nn::loss::Mse;
use tasfar_nn::optim::Adam;
use tasfar_nn::rng::Rng;
use tasfar_nn::spec::DeltaArtifact;
use tasfar_nn::tensor::Tensor;
use tasfar_nn::train::{try_fit, TrainConfig};
use tasfar_serve::registry::{register_prototypes, TenantRegistry};
use tasfar_serve::{generate, OpSpec, ServeConfig, ServeRuntime, TrafficConfig};

use crate::stats::ErrorMeasure;

/// Predict requests per window: the batch window of every runtime.
pub const WINDOW: usize = 256;
/// Rank of every tenant delta.
const RANK: usize = 2;
/// Zipf exponent of tenant popularity.
const ZIPF_S: f64 = 1.1;
/// Rows of a serve-walkers adapt batch.
const SMALL_BATCH: usize = 64;
/// Rows of a serve-churn adapt batch. On 64-row taxi batches about one
/// adapt in 450 exhausts the guard's retries (see CHANGES.md), which would
/// make the failed share depend on run length; at 256 rows it does not
/// happen.
const CHURN_BATCH: usize = 256;
/// Registry shards of every runtime.
const SHARDS: usize = 16;

/// Walkers adapted per round in adapt-walkers (the world's unseen walkers).
const UNSEEN_WALKERS: usize = 4;
/// Walkers whose clean sessions train the source model; with the unseen
/// ones they are the tenants of serve-walkers.
const SEEN_WALKERS: usize = 4;
/// Predict windows after the adapt window of one adapt-walkers round.
const ADAPT_ROUND_WINDOWS: usize = 200;
/// Windows per serve-walkers round; its last one carries a re-adapt op.
const WALKER_ROUND: usize = 64;

/// Departure-point tenants of serve-churn.
const CHURN_TENANTS: u64 = 100_000;
/// Departure regions the churn tenants' deltas are adapted from.
const REGIONS: usize = 4;
/// Resident-delta budget of serve-churn, far below its working set.
const CHURN_BUDGET: u64 = 256 << 10;
/// Windows per serve-churn round; its last one carries an adapt op.
const CHURN_ROUND: usize = 4;
/// Budget of the walker workloads: every walker delta stays resident.
const WALKER_BUDGET: u64 = 64 << 20;

/// Which workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Per-walker TASFAR adaptation of the PDR TCN, then serving.
    AdaptWalkers,
    /// Zipf step-window serving over resident walker deltas.
    ServeWalkers,
    /// 100k taxi departure-point tenants churning through a small budget.
    ServeChurn,
}

impl Kind {
    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Kind> {
        match name {
            "adapt-walkers" => Some(Kind::AdaptWalkers),
            "serve-walkers" => Some(Kind::ServeWalkers),
            "serve-churn" => Some(Kind::ServeChurn),
            _ => None,
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::AdaptWalkers => "adapt-walkers",
            Kind::ServeWalkers => "serve-walkers",
            Kind::ServeChurn => "serve-churn",
        }
    }
}

/// One target's data: a walker, or a departure region.
pub struct Group {
    /// Indices into [`Task::x`] of the labelled rows its requests carry.
    pub serve_rows: Vec<usize>,
    /// Its unlabeled adaptation rows.
    pub adapt_x: Tensor,
}

/// A trained and calibrated task with its labelled request rows.
pub struct Task {
    /// The frozen source model (no adapters attached).
    pub source: Sequential,
    /// τ and Q_s calibrated on the source data.
    pub calib: SourceCalibration,
    /// The task's TASFAR settings.
    pub cfg: TasfarConfig,
    /// The paper's error measure for the task.
    pub measure: ErrorMeasure,
    /// Labelled request rows (inputs scaled as the model expects).
    pub x: Tensor,
    /// Labels of [`Task::x`].
    pub y: Tensor,
    /// Per-target data.
    pub groups: Vec<Group>,
}

impl Task {
    /// The adapter configuration every delta is captured under.
    pub fn adapter(&self) -> AdapterConfig {
        AdapterConfig::rank(RANK)
    }

    /// The per-tenant adaptation recipe.
    pub fn session(&self) -> TenantSession {
        TenantSession::new(self.calib.clone(), self.cfg.clone(), self.adapter())
    }
}

/// An adapt op due in a window.
pub struct AdaptOp {
    /// The tenant adapting.
    pub tenant: u64,
    /// Its unlabeled batch.
    pub x: Tensor,
}

/// What the client submits before draining.
pub struct Window {
    /// Predict requests: tenant and row of [`Task::x`] (one row each).
    pub reqs: Vec<(u64, usize)>,
    /// Adapt ops, submitted after the predicts.
    pub adapts: Vec<AdaptOp>,
}

/// A built workload: task, tenant layout, and the runtime under test.
pub struct Workload {
    /// Which workload.
    pub kind: Kind,
    /// Seed of every generated input.
    pub seed: u64,
    /// Trained task.
    pub task: Task,
    /// Serialized cold delta per group that every tenant starts with
    /// (serve-churn), empty when tenants start without a delta.
    pub cold: Vec<Arc<str>>,
    /// The runtime, populated and ready for traffic.
    pub runtime: Arc<ServeRuntime>,
    /// The (walker, row) sequence adapt-walkers' predict windows cycle over.
    cycle: Vec<(usize, usize)>,
}

impl Workload {
    /// Runs the whole set-up: world generation, source training,
    /// calibration, and runtime and registry population.
    pub fn build(kind: Kind, seed: u64) -> Result<Workload, String> {
        let (task, cold) = match kind {
            Kind::AdaptWalkers | Kind::ServeWalkers => (pdr_task(seed)?, Vec::new()),
            Kind::ServeChurn => {
                let task = taxi_task(seed)?;
                let cold = region_deltas(&task, seed)?;
                (task, cold)
            }
        };
        let mut cycle = Vec::new();
        if kind == Kind::AdaptWalkers {
            cycle = (0..UNSEEN_WALKERS)
                .flat_map(|w| task.groups[w].serve_rows.iter().map(move |&r| (w, r)))
                .collect();
            Rng::new(seed ^ 0xC7C1E).shuffle(&mut cycle);
        }
        let runtime = make_runtime(kind, &task, &cold);
        Ok(Workload {
            kind,
            seed,
            task,
            cold,
            runtime,
            cycle,
        })
    }

    /// The resident-delta byte budget.
    pub fn budget(&self) -> u64 {
        budget(self.kind)
    }

    /// A registry configured and populated like the runtime's: the traced
    /// run's shadow of it.
    pub fn shadow_registry(&self) -> TenantRegistry {
        let registry = TenantRegistry::new(SHARDS, self.budget());
        populate(&registry, &self.cold);
        registry
    }

    /// A runtime over the same model and recipe whose budget holds every
    /// delta: the second worker the bit-identity check serves solo from.
    pub fn check_runtime(&self) -> Arc<ServeRuntime> {
        let cfg = ServeConfig {
            resident_budget_bytes: WALKER_BUDGET,
            ..serve_config(self.kind)
        };
        ServeRuntime::new(self.task.source.clone(), self.task.session(), cfg)
    }

    /// The group (walker or region) of a tenant.
    pub fn group_of(&self, tenant: u64) -> usize {
        match self.kind {
            Kind::AdaptWalkers => (tenant % UNSEEN_WALKERS as u64) as usize,
            Kind::ServeWalkers => tenant as usize,
            Kind::ServeChurn => (tenant % REGIONS as u64) as usize,
        }
    }

    /// Windows before timing starts.
    pub fn warmup(&self) -> usize {
        match self.kind {
            Kind::AdaptWalkers => 4,
            // The window that adapts every walker, then one round.
            Kind::ServeWalkers => 1 + WALKER_ROUND,
            Kind::ServeChurn => 2 * CHURN_ROUND,
        }
    }

    /// Windows per round; runs time whole rounds only.
    pub fn round_len(&self) -> usize {
        match self.kind {
            Kind::AdaptWalkers => 1 + ADAPT_ROUND_WINDOWS,
            Kind::ServeWalkers => WALKER_ROUND,
            Kind::ServeChurn => CHURN_ROUND,
        }
    }

    /// Timed rounds whose per-layer counts and error are reported: the
    /// first whole rounds holding at least 100 predict windows. Every run
    /// times at least these rounds.
    pub fn prefix_rounds(&self) -> usize {
        let predict_windows = match self.kind {
            Kind::AdaptWalkers => ADAPT_ROUND_WINDOWS,
            _ => self.round_len(),
        };
        100usize.div_ceil(predict_windows)
    }

    /// Window `i` of the run (warm-up windows first).
    pub fn window(&self, i: usize) -> Window {
        match self.kind {
            Kind::AdaptWalkers => {
                // Each round a new cohort of the unseen walkers arrives under
                // fresh tenant ids: every walker adapts on its whole
                // adaptation split, then the cohort's test windows are
                // served. Warm-up windows serve cohort 0 before it adapts.
                let warm = self.warmup();
                let (cohort, k) = if i < warm {
                    (0, Some(i))
                } else {
                    let j = i - warm;
                    (
                        (j / self.round_len()) as u64,
                        (j % self.round_len()).checked_sub(1),
                    )
                };
                let tenant = |w: usize| cohort * UNSEEN_WALKERS as u64 + w as u64;
                let Some(k) = k else {
                    let adapts = (0..UNSEEN_WALKERS)
                        .map(|w| AdaptOp {
                            tenant: tenant(w),
                            x: self.task.groups[w].adapt_x.clone(),
                        })
                        .collect();
                    return Window {
                        reqs: Vec::new(),
                        adapts,
                    };
                };
                let n = self.cycle.len();
                let reqs = (0..WINDOW)
                    .map(|j| {
                        let (w, row) = self.cycle[(k * WINDOW + j) % n];
                        (tenant(w), row)
                    })
                    .collect();
                Window {
                    reqs,
                    adapts: Vec::new(),
                }
            }
            Kind::ServeWalkers => {
                let walkers = (UNSEEN_WALKERS + SEEN_WALKERS) as u64;
                if i == 0 {
                    // Warm-up: every walker adapts on a small batch, so every
                    // walker holds a resident delta when timing starts.
                    let adapts = (0..walkers)
                        .map(|t| AdaptOp {
                            tenant: t,
                            x: self.batch(t, i, SMALL_BATCH),
                        })
                        .collect();
                    return Window {
                        reqs: Vec::new(),
                        adapts,
                    };
                }
                let adapt_due = (i - 1) % WALKER_ROUND == WALKER_ROUND - 1;
                self.zipf_window(i, walkers, adapt_due)
            }
            Kind::ServeChurn => {
                let mut window = self.zipf_window(i, CHURN_TENANTS, false);
                if i % CHURN_ROUND == CHURN_ROUND - 1 {
                    // Adapt ops walk a seeded sequence of distinct tenants
                    // (7919 is coprime with the tenant count), each adapting
                    // once from its region's cold delta.
                    let c = (i / CHURN_ROUND) as u64;
                    let tenant = (mix(self.seed, u64::MAX) + c * 7919) % CHURN_TENANTS;
                    window.adapts.push(AdaptOp {
                        tenant,
                        x: self.batch(tenant, i, CHURN_BATCH),
                    });
                }
                window
            }
        }
    }

    /// A full window of Zipf-popular predict requests over `tenants`, plus
    /// one adapt op on a Zipf-drawn tenant when due.
    fn zipf_window(&self, i: usize, tenants: u64, adapt_due: bool) -> Window {
        let draws = generate(&TrafficConfig {
            tenants,
            requests: WINDOW + 1,
            zipf_s: ZIPF_S,
            adapt_frac: 0.0,
            evict_frac: 0.0,
            mean_gap_ns: 1_000,
            pareto_alpha: 1.5,
            seed: mix(self.seed, i as u64),
        });
        let mut rng = Rng::new(mix(self.seed ^ 0x2085, i as u64));
        let mut tenant_of = draws.iter().map(|e| match e.op {
            OpSpec::Predict { tenant } | OpSpec::Adapt { tenant } | OpSpec::Evict { tenant } => {
                tenant
            }
        });
        let reqs = tenant_of
            .by_ref()
            .take(WINDOW)
            .map(|t| {
                let rows = &self.task.groups[self.group_of(t)].serve_rows;
                (t, rows[rng.below(rows.len())])
            })
            .collect();
        let adapts = if adapt_due {
            let t = tenant_of.next().expect("one draw beyond the window");
            vec![AdaptOp {
                tenant: t,
                x: self.batch(t, i, SMALL_BATCH),
            }]
        } else {
            Vec::new()
        };
        Window { reqs, adapts }
    }

    /// `n` rows of the tenant's group adaptation data, drawn from the seed,
    /// the tenant and the window.
    fn batch(&self, tenant: u64, i: usize, n: usize) -> Tensor {
        let x = &self.task.groups[self.group_of(tenant)].adapt_x;
        let mut rng = Rng::new(mix(self.seed ^ tenant.wrapping_mul(0x9E37), i as u64));
        let mut rows = rng.permutation(x.rows());
        rows.truncate(n);
        x.select_rows(&rows)
    }
}

/// Decorrelates a per-window stream from the workload seed.
fn mix(seed: u64, i: u64) -> u64 {
    let mut h = seed ^ 0x9E37_79B9_7F4A_7C15;
    h = (h ^ i).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h ^ (h >> 31)
}

fn budget(kind: Kind) -> u64 {
    match kind {
        Kind::ServeChurn => CHURN_BUDGET,
        _ => WALKER_BUDGET,
    }
}

fn serve_config(kind: Kind) -> ServeConfig {
    ServeConfig {
        shards: SHARDS,
        queue_depth: 4 * WINDOW,
        batch_window: WINDOW,
        resident_budget_bytes: budget(kind),
    }
}

fn populate(registry: &TenantRegistry, cold: &[Arc<str>]) {
    if !cold.is_empty() {
        register_prototypes(registry, CHURN_TENANTS, cold);
    }
}

fn make_runtime(kind: Kind, task: &Task, cold: &[Arc<str>]) -> Arc<ServeRuntime> {
    let rt = ServeRuntime::new(task.source.clone(), task.session(), serve_config(kind));
    populate(rt.registry(), cold);
    rt
}

/// The PDR task: a seeded world of walkers, the TCN source model trained as
/// the repository's quick-scale PDR context trains it, and the PDR TASFAR
/// settings. Groups are the unseen walkers, then the seen ones.
fn pdr_task(seed: u64) -> Result<Task, String> {
    let config = PdrConfig {
        n_seen: SEEN_WALKERS,
        n_unseen: UNSEEN_WALKERS,
        source_steps_per_user: 100,
        trajectories_per_user: 5,
        steps_per_trajectory: 20,
        seed,
        ..PdrConfig::default()
    };
    let world = pdr::generate(&config);
    let scaler = Scaler::fit(&world.source.x);
    let x = scaler.transform(&world.source.x);
    let mut rng = Rng::new(seed ^ 0x5eed);
    let mut model = pdr_model(&config, &mut rng);
    for (epochs, lr, train_seed) in [(30, 1e-3, 1), (15, 2e-4, 2)] {
        let mut opt = Adam::new(lr);
        try_fit(
            &mut model,
            &mut opt,
            &Mse,
            &x,
            &world.source.y,
            None,
            &TrainConfig {
                epochs,
                batch_size: 64,
                seed: train_seed,
                ..TrainConfig::default()
            },
        )
        .map_err(|e| format!("PDR source training: {e}"))?;
    }
    let cfg = pdr_tasfar_config(Scale::Full);
    let source = Dataset::new(x, world.source.y.clone());
    let calib = calibrate_on_source(&mut model, &source, &cfg)
        .map_err(|e| format!("PDR source calibration: {e}"))?;

    let walkers: Vec<&PdrUser> = world
        .unseen_users
        .iter()
        .chain(world.seen_users.iter())
        .collect();
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    let mut groups = Vec::new();
    let mut next_row = 0usize;
    for user in walkers {
        let (adapt, test) = user.adaptation_test_split(0.8);
        let adapt_parts: Vec<&Tensor> = adapt.iter().map(|t| &t.windows).collect();
        let adapt_x = scaler.transform(&Tensor::vstack(&adapt_parts));
        let mut serve_rows = Vec::new();
        for t in test {
            xs.push(scaler.transform(&t.windows));
            ys.push(t.displacements.clone());
            serve_rows.extend(next_row..next_row + t.windows.rows());
            next_row += t.windows.rows();
        }
        groups.push(Group {
            serve_rows,
            adapt_x,
        });
    }
    Ok(Task {
        source: model,
        calib,
        cfg,
        measure: ErrorMeasure::Ste,
        x: Tensor::vstack(&xs.iter().collect::<Vec<_>>()),
        y: Tensor::vstack(&ys.iter().collect::<Vec<_>>()),
        groups,
    })
}

/// The taxi task: the repository's seeded quick-scale taxi context, whose
/// Manhattan-departure target trips are split into [`REGIONS`] departure
/// regions by the quadrant of their pickup point.
fn taxi_task(seed: u64) -> Result<Task, String> {
    let ctx = taxi_context_seeded(Scale::Quick, seed);
    let target = &ctx.target;
    // Columns 0 and 1 are the pickup coordinates.
    let split_at = |c: usize| {
        let mut v = target.x.col(c);
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    };
    let (mx, my) = (split_at(0), split_at(1));
    let mut members = vec![Vec::new(); REGIONS];
    for r in 0..target.len() {
        let q = usize::from(target.x.get(r, 0) >= mx) + 2 * usize::from(target.x.get(r, 1) >= my);
        members[q].push(r);
    }
    let mut groups = Vec::new();
    for rows in members {
        if rows.len() < CHURN_BATCH {
            return Err(format!(
                "taxi: a departure region holds {} trips, fewer than an adapt batch",
                rows.len()
            ));
        }
        groups.push(Group {
            adapt_x: target.x.select_rows(&rows),
            serve_rows: rows,
        });
    }
    Ok(Task {
        source: ctx.model,
        calib: ctx.calib,
        cfg: ctx.tasfar,
        measure: ErrorMeasure::Rmsle,
        x: target.x.clone(),
        y: target.y.clone(),
        groups,
    })
}

/// Adapts one delta per departure region on all of the region's trips and
/// serializes it: the cold artifacts the churn tenants start with.
fn region_deltas(task: &Task, seed: u64) -> Result<Vec<Arc<str>>, String> {
    let session = task.session();
    let mut rng = Rng::new(seed ^ 0x4E610);
    let (mut model, init) = session.prepare_shared(&task.source, &mut rng);
    task.groups
        .iter()
        .enumerate()
        .map(|(g, group)| {
            let (outcome, artifact) = session.adapt_delta(
                &mut model,
                &init,
                g as u64,
                None,
                &group.adapt_x,
                &Mse,
                &mut rng,
            );
            match artifact {
                Some(a) if !outcome.fell_back() => Ok(Arc::from(a.to_json().as_str())),
                _ => Err(format!("taxi: region {g} adaptation fell back to source")),
            }
        })
        .collect()
}

/// Parses a cold artifact the workload itself serialized.
pub fn parse_cold(json: &str) -> DeltaArtifact {
    DeltaArtifact::from_json(json).expect("the workload's own cold artifact parses")
}
