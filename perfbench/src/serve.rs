//! The serving path: `ServingRuntime::serve` over registered designs.

use crate::check::{self, TenantCheck};
use crate::stats::{median, ms_since, percentile, proc_status_mb};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use s2fa::blaze::serving::generate;
use s2fa::blaze::{
    AccelTimeModel, Accelerator, AcceleratorRegistry, ServingConfig, ServingRuntime, TenantSpec,
};
use s2fa::compile_kernel;
use s2fa::sjvm::{HostValue, KernelSpec, RddOp, Shape};
use s2fa::trace::{Event, NullSink, TraceSink};
use s2fa_obs::Profiler;
use s2fa_workloads::all_workloads;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Simulated cluster shape of every serving workload. Admission is
/// consistent: `max_inflight >= nodes * max_batch`, so one tenant can keep
/// every node busy, and the queue bound is never reached below capacity.
pub const CONFIG: ServingConfig = ServingConfig {
    nodes: 4,
    exec_threads: 1,
    max_batch: 8,
    max_wait_ms: 2.0,
    max_inflight: 32,
    queue_capacity: 64,
};

/// Offered load as a share of the cluster's modelled capacity.
pub const UTILIZATION: f64 = 0.75;

/// Request mix of one serving workload.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Requests each tenant submits per `serve` call.
    pub requests_per_tenant: usize,
    /// Records per request.
    pub records_per_request: usize,
    /// Requests per call whose outputs are checked against the
    /// interpreter.
    pub sampled: usize,
}

/// One design to serve, with what the checks need to know about it.
pub struct Design {
    /// Workload name.
    pub name: &'static str,
    /// The registered accelerator.
    pub accelerator: Accelerator,
    /// The lambda the design implements.
    pub lambda: KernelSpec,
    /// The user's lambda (the tenant's JVM fallback), which the workload's
    /// native reference models.
    pub fallback: KernelSpec,
    /// Record generator.
    pub gen_input: fn(usize, u64) -> Vec<HostValue>,
}

/// A registry of designs and the tenants that load it.
pub struct ServeBench {
    registry: AcceleratorRegistry,
    designs: Vec<Design>,
    models: Vec<AccelTimeModel>,
    tenants: Vec<TenantSpec>,
    plan: Plan,
    seed: u64,
    /// `(request id, records)` of the sampled requests, filled on first use.
    sampled: Vec<(u64, Vec<HostValue>)>,
    /// Per design, the workload whose native reference models its lambda
    /// (`None` where the expert rewrote the lambda); filled on first use.
    references: Vec<Option<&'static str>>,
}

impl ServeBench {
    /// Registers `designs` and sizes one tenant per design so the
    /// aggregate offered load is [`UTILIZATION`] of the modelled capacity
    /// of [`CONFIG`]'s nodes, split evenly across tenants.
    pub fn new(designs: Vec<Design>, plan: Plan, seed: u64) -> ServeBench {
        let registry = AcceleratorRegistry::new();
        let n = designs.len() as f64;
        let mut models = Vec::new();
        let mut tenants = Vec::new();
        for (i, d) in designs.iter().enumerate() {
            let model = d
                .accelerator
                .time_model
                .expect("compiled accelerators carry a time model");
            let request_ms = model.batch_ms(plan.records_per_request as u64);
            tenants.push(TenantSpec {
                name: d.name.to_string(),
                accel_id: d.accelerator.id.clone(),
                fallback: d.fallback.clone(),
                rate_per_ms: UTILIZATION * CONFIG.nodes as f64 / (n * request_ms),
                requests: plan.requests_per_tenant,
                records_per_request: plan.records_per_request,
                gen_input: d.gen_input,
                seed: seed ^ (i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            });
            models.push(model);
            registry.register(d.accelerator.clone());
        }
        ServeBench {
            registry,
            designs,
            models,
            tenants,
            plan,
            seed,
            sampled: Vec::new(),
            references: Vec::new(),
        }
    }

    fn submitted(&self) -> usize {
        self.tenants.iter().map(|t| t.requests).sum()
    }

    /// Draws the seeded sample of requests whose outputs get checked
    /// (once; every call serves the same requests), and finds which
    /// designs implement the user lambda: those whose generated C equals
    /// the user lambda's.
    fn sample(&mut self) {
        if !self.sampled.is_empty() {
            return;
        }
        let c_of = |spec: &KernelSpec| compile_kernel(spec).ok().map(|g| g.cfunc);
        self.references = self
            .designs
            .iter()
            .map(|d| (c_of(&d.lambda) == c_of(&d.fallback)).then_some(d.name))
            .collect();
        let requests = generate(&self.tenants);
        let mut rng = SmallRng::seed_from_u64(self.seed ^ 0x5A_4D_50_4C);
        let mut ids: Vec<u64> = (0..self.plan.sampled)
            .map(|_| rng.gen_range(0..requests.len() as u64))
            .collect();
        ids.sort_unstable();
        ids.dedup();
        self.sampled = ids
            .into_iter()
            .map(|id| (id, requests[id as usize].records.clone()))
            .collect();
    }

    fn tenant_checks(&self) -> Vec<TenantCheck<'_>> {
        self.designs
            .iter()
            .zip(&self.models)
            .zip(&self.references)
            .map(|((d, m), reference)| TenantCheck {
                lambda: &d.lambda,
                reference: *reference,
                model: *m,
                records_per_request: self.plan.records_per_request,
            })
            .collect()
    }

    /// One `serve` call with tracing off, timed from outside.
    pub fn call(&mut self, tally: &mut ServeTally) {
        self.sample();
        let runtime = ServingRuntime::new(&self.registry, CONFIG).expect("CONFIG is valid");
        let t0 = Instant::now();
        let result = runtime.serve(&self.tenants, &NullSink, &Profiler::disabled());
        let secs = t0.elapsed().as_secs_f64();
        tally.wall_ms.push(secs * 1e3);
        let submitted = self.submitted();
        tally.attempted += submitted as u64;
        match result {
            Err(e) => tally.fail(submitted as u64, format!("serve failed: {e}")),
            Ok(outcome) => {
                let (failed, why) =
                    check::serve(&outcome, submitted, &self.tenant_checks(), &self.sampled);
                if let Some(why) = why {
                    tally.fail(failed.len() as u64, why);
                }
                tally
                    .req_per_s
                    .push(outcome.stats.completed() as f64 / secs);
                if tally.latency_ms.is_empty() {
                    tally.latency_ms = outcome.latencies_ms();
                }
            }
        }
    }

    /// One traced call: the same `serve` with a recording sink, plus
    /// `generate` and a replay of every formed batch through
    /// `Accelerator::run_batch`, each timed from outside.
    pub fn traced_call(&mut self, tally: &mut ServeTally, layers: &mut ServeLayers) {
        self.sample();
        let runtime = ServingRuntime::new(&self.registry, CONFIG).expect("CONFIG is valid");
        let t_all = Instant::now();
        let t0 = Instant::now();
        let requests = generate(&self.tenants);
        let loadgen_ms = ms_since(t0);

        let sink = RecordingSink::default();
        let rss_before = proc_status_mb("VmRSS");
        let t0 = Instant::now();
        let result = runtime.serve(&self.tenants, &sink, &Profiler::disabled());
        let serve_ms = ms_since(t0);
        let rss_after = proc_status_mb("VmRSS");

        let (batches, membership_error) = sink.batches();
        let t0 = Instant::now();
        let mut records_run = 0usize;
        let mut replay_error = None;
        for (accel_id, members) in &batches {
            let accel = self
                .registry
                .lookup(accel_id)
                .expect("batches form on registered accelerators");
            assert_eq!(accel.operator, RddOp::Map, "every served design is a map");
            let concat: Vec<HostValue> = members
                .iter()
                .flat_map(|&rid| requests[rid as usize].records.iter().cloned())
                .collect();
            records_run += concat.len();
            if let Err(e) = accel.run_batch(&concat) {
                replay_error.get_or_insert(format!("replay of a batch on {accel_id} failed: {e}"));
            }
        }
        let exec_ms = ms_since(t0);
        let traced_ms = ms_since(t_all);

        let submitted = self.submitted();
        tally.attempted += submitted as u64;
        match result {
            Err(e) => tally.fail(submitted as u64, format!("serve failed: {e}")),
            Ok(outcome) => {
                let (failed, why) =
                    check::serve(&outcome, submitted, &self.tenant_checks(), &self.sampled);
                if let Some(why) = why {
                    tally.fail(failed.len() as u64, why);
                }
                if let Some(why) = membership_error.or(replay_error) {
                    tally.fail(0, why);
                }
                let s = &outcome.stats;
                layers.batches.push(s.batches as f64);
                layers.batch_size_mean.push(s.mean_batch_size());
                layers.queue_depth_max.push(s.max_queue_depth as f64);
            }
        }
        layers.loadgen_ms.push(loadgen_ms);
        layers.exec_ms.push(exec_ms);
        layers
            .exec_us_per_record
            .push(exec_ms * 1e3 / records_run.max(1) as f64);
        layers.other_ms.push(serve_ms - loadgen_ms - exec_ms);
        layers
            .events
            .push(sink.events.load(Ordering::Relaxed) as f64);
        layers.rss_delta_mb.push(rss_after - rss_before);
        layers.traced_ms.push(traced_ms);
    }
}

/// Counts over every `serve` call; timings of the untraced ones.
#[derive(Debug, Default)]
pub struct ServeTally {
    /// Requests submitted.
    pub attempted: u64,
    /// Requests that failed a check.
    pub failed: u64,
    /// The first failure.
    pub first_error: Option<String>,
    /// Host wall time of each call.
    pub wall_ms: Vec<f64>,
    /// Completed requests per host second, per call.
    pub req_per_s: Vec<f64>,
    /// Modelled latencies of the first call (every call is identical).
    pub latency_ms: Vec<f64>,
}

impl ServeTally {
    fn fail(&mut self, requests: u64, why: String) {
        self.failed += requests;
        self.first_error.get_or_insert(why);
    }

    /// `(serve_req_per_s, sim_latency_ms_p50, sim_latency_ms_p99)`.
    pub fn end_to_end(&self) -> [(&'static str, f64, &'static str); 3] {
        [
            ("serve_req_per_s", median(&self.req_per_s), "1/s"),
            (
                "sim_latency_ms_p50",
                percentile(&self.latency_ms, 50.0),
                "ms",
            ),
            (
                "sim_latency_ms_p99",
                percentile(&self.latency_ms, 99.0),
                "ms",
            ),
        ]
    }
}

/// Per-call layer measurements of the traced `serve` calls.
#[derive(Debug, Default)]
pub struct ServeLayers {
    loadgen_ms: Vec<f64>,
    exec_ms: Vec<f64>,
    exec_us_per_record: Vec<f64>,
    other_ms: Vec<f64>,
    events: Vec<f64>,
    batches: Vec<f64>,
    batch_size_mean: Vec<f64>,
    queue_depth_max: Vec<f64>,
    rss_delta_mb: Vec<f64>,
    /// Wall time of each whole traced call.
    pub traced_ms: Vec<f64>,
}

impl ServeLayers {
    /// Medians over the traced calls, except `serve.rss_delta_mb`: the
    /// largest growth, since later calls reuse the heap the first freed.
    pub fn metrics(&self) -> Vec<(&'static str, f64, &'static str)> {
        vec![
            ("loadgen.ms", median(&self.loadgen_ms), "ms"),
            ("exec.ms", median(&self.exec_ms), "ms"),
            ("exec.us_per_record", median(&self.exec_us_per_record), "us"),
            ("serve.other_ms", median(&self.other_ms), "ms"),
            ("serve.events", median(&self.events), "count"),
            ("serve.batches", median(&self.batches), "count"),
            (
                "serve.batch_size_mean",
                median(&self.batch_size_mean),
                "requests",
            ),
            (
                "serve.queue_depth_max",
                median(&self.queue_depth_max),
                "requests",
            ),
            (
                "serve.rss_delta_mb",
                percentile(&self.rss_delta_mb, 100.0),
                "MB",
            ),
        ]
    }
}

/// Records every event's count and the `Enqueue`/`BatchFormed` stream,
/// from which each batch's membership is recovered: a batch drains every
/// request enqueued on its accelerator since that accelerator's previous
/// batch.
#[derive(Debug, Default)]
struct RecordingSink {
    events: AtomicU64,
    state: Mutex<Membership>,
}

#[derive(Debug, Default)]
struct Membership {
    pending: HashMap<String, Vec<u64>>,
    batches: Vec<(String, Vec<u64>)>,
    error: Option<String>,
}

impl RecordingSink {
    /// The recovered batches in formation order, and the first batch whose
    /// recovered size disagrees with the event's.
    fn batches(&self) -> (Vec<(String, Vec<u64>)>, Option<String>) {
        let mut m = self.state.lock().expect("sink lock is never poisoned");
        (std::mem::take(&mut m.batches), m.error.take())
    }
}

impl TraceSink for RecordingSink {
    fn emit(&self, event: &Event) {
        self.events.fetch_add(1, Ordering::Relaxed);
        let mut m = self.state.lock().expect("sink lock is never poisoned");
        match event {
            Event::Enqueue { request, accel, .. } => {
                m.pending.entry(accel.clone()).or_default().push(*request);
            }
            Event::BatchFormed {
                accel, size, batch, ..
            } => {
                let members = m.pending.remove(accel).unwrap_or_default();
                if members.len() as u64 != *size && m.error.is_none() {
                    m.error = Some(format!(
                        "batch {batch} on {accel}: {} enqueued requests recovered, event says {size}",
                        members.len()
                    ));
                }
                m.batches.push((accel.clone(), members));
            }
            _ => {}
        }
    }

    fn emitted(&self) -> u64 {
        self.events.load(Ordering::Relaxed)
    }
}

/// Seed of the closure state (weights, centroids, training set) every
/// tenant's requests share.
const MODEL_SEED: u64 = 0x4D_4F44_454C;

/// One workload's generator and the closure state its tenant serves.
struct Model {
    gen_input: fn(usize, u64) -> Vec<HostValue>,
    shape: Shape,
    closure: HostValue,
}

/// Record generator of Table-2 workload `k` in which every request
/// carries the same closure state: a tenant queries one deployed model.
///
/// The workloads' own generators draw fresh closure state per call, so
/// every request of a tenant would carry different weights; the serving
/// runtime coalesces requests into one `run_batch`, which ships the
/// broadcast leaves of the first record only.
pub fn shared_closure_input(k: usize) -> fn(usize, u64) -> Vec<HostValue> {
    const GENS: [fn(usize, u64) -> Vec<HostValue>; 8] = [
        shared::<0>,
        shared::<1>,
        shared::<2>,
        shared::<3>,
        shared::<4>,
        shared::<5>,
        shared::<6>,
        shared::<7>,
    ];
    GENS[k]
}

fn shared<const K: usize>(n: usize, seed: u64) -> Vec<HostValue> {
    static MODELS: OnceLock<Vec<Model>> = OnceLock::new();
    let models = MODELS.get_or_init(|| {
        all_workloads()
            .into_iter()
            .map(|w| Model {
                gen_input: w.gen_input,
                shape: w.spec.input_shape.clone(),
                closure: (w.gen_input)(1, MODEL_SEED).remove(0),
            })
            .collect()
    });
    let m = &models[K];
    (m.gen_input)(n, seed)
        .into_iter()
        .map(|r| with_closure(r, &m.closure, &m.shape))
        .collect()
}

/// `record` with its broadcast leaves replaced by those of `model`.
fn with_closure(record: HostValue, model: &HostValue, shape: &Shape) -> HostValue {
    match (record, model, shape) {
        (_, model, Shape::Bcast(_)) => model.clone(),
        (HostValue::Tuple(vs), HostValue::Tuple(ms), Shape::Composite(fs)) => HostValue::Tuple(
            vs.into_iter()
                .zip(ms)
                .zip(fs)
                .map(|((v, m), f)| with_closure(v, m, f))
                .collect(),
        ),
        (record, _, _) => record,
    }
}
