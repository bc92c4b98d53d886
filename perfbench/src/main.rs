//! End-to-end benchmark of the two paths users run: `S2fa::compile` over
//! the eight Table-2 kernels and `ServingRuntime::serve` over registered
//! designs.
//!
//! ```text
//! perfbench --workload <compile-s2fa|compile-vanilla|serve-mix|serve-many>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One process makes one call at a time. A run sets up several times,
//! drives its workload's path for three quarters of `--seconds`, then the
//! other path for the last quarter, so every end-to-end metric is measured
//! on every workload. Every operation (one compile call, one served request) is
//! checked outside the timed part. With `--trace 1` the run instead times
//! each layer's public calls from outside and prints the per-layer
//! metrics. The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. See README.md.

mod check;
mod compile;
mod serve;
mod stats;

use compile::{CompileBench, CompileLayers, CompileTally};
use s2fa::dse::vanilla_options;
use s2fa::hlsir::analysis;
use s2fa::{compile_kernel, S2fa, S2faOptions};
use s2fa_workloads::{all_workloads, Workload};
use serve::{shared_closure_input, Design, Plan, ServeBench, ServeLayers, ServeTally};
use stats::{median, proc_status_mb};
use std::time::Instant;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `S2fa::compile` with `S2faOptions::default()`.
    CompileS2fa,
    /// `S2fa::compile` with the vanilla-OpenTuner DSE baseline.
    CompileVanilla,
    /// Eight tenants, one per manual Table-2 design, a few records each.
    ServeMix,
    /// The seven tenants other than S-W, one record per request, many
    /// requests.
    ServeMany,
}

impl Kind {
    /// Every workload, in BENCHMARK.json order.
    pub const ALL: [Kind; 4] = [
        Kind::CompileS2fa,
        Kind::CompileVanilla,
        Kind::ServeMix,
        Kind::ServeMany,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Kind::CompileS2fa => "compile-s2fa",
            Kind::CompileVanilla => "compile-vanilla",
            Kind::ServeMix => "serve-mix",
            Kind::ServeMany => "serve-many",
        }
    }
}

/// Sizes of one run, apart from its `--seconds`.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Set-ups per run; `setup_s` is their median.
    pub setup_reps: usize,
    /// Records each kernel's first compiled accelerator is checked on.
    pub check_records: usize,
    /// Requests of `serve-mix`.
    pub mix: Plan,
    /// Requests of `serve-many`.
    pub many: Plan,
    /// Requests of a compile workload's serve pass over its own designs.
    pub deploy: Plan,
    /// Design points per kernel timed through the estimator and engine.
    pub estimate_points: usize,
}

impl Sizes {
    /// The sizes the benchmark runs at.
    pub const FULL: Sizes = Sizes {
        setup_reps: 31,
        check_records: 3,
        mix: Plan {
            requests_per_tenant: 128,
            records_per_request: 2,
            sampled: 16,
        },
        many: Plan {
            requests_per_tenant: 4000,
            records_per_request: 1,
            sampled: 16,
        },
        deploy: Plan {
            requests_per_tenant: 300,
            records_per_request: 1,
            sampled: 16,
        },
        estimate_points: 64,
    };
}

/// What a run prints.
#[derive(Debug)]
pub struct Report {
    /// No operation failed and every check held.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// The first failure.
    pub first_error: Option<String>,
    /// `(name, value, unit)`.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Human-readable lines printed ahead of the result.
    pub notes: Vec<String>,
}

impl Report {
    /// The result line: one JSON object.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A workload's compile path, and its serving path when it serves manual
/// designs (a compile workload serves the designs it selects).
type Bench = (CompileBench, Option<ServeBench>);

/// Builds the specs and the framework; for serving, also compiles and
/// registers the manual designs and builds the tenant specs.
fn setup(kind: Kind, seed: u64, sizes: &Sizes) -> Bench {
    let compile = |options: S2faOptions| {
        CompileBench::new(all_workloads(), options, seed, sizes.check_records)
    };
    match kind {
        Kind::CompileS2fa => (compile(S2faOptions::default()), None),
        Kind::CompileVanilla => (
            compile(S2faOptions {
                dse: vanilla_options(),
                ..S2faOptions::default()
            }),
            None,
        ),
        Kind::ServeMix | Kind::ServeMany => {
            let framework = S2fa::new(S2faOptions::default());
            let designs = all_workloads()
                .into_iter()
                .enumerate()
                .filter(|(_, w)| kind == Kind::ServeMix || w.name != "S-W")
                .map(|(k, w)| manual_design(&framework, k, w))
                .collect();
            let plan = if kind == Kind::ServeMix {
                sizes.mix
            } else {
                sizes.many
            };
            (
                compile(S2faOptions::default()),
                Some(ServeBench::new(designs, plan, seed)),
            )
        }
    }
}

/// Compiles Table-2 workload `k`'s manual design through the expert flow.
fn manual_design(framework: &S2fa, k: usize, w: Workload) -> Design {
    let generated = compile_kernel(&w.manual_spec).expect("manual kernels compile");
    let summary = analysis::summarize(&generated.cfunc, framework.options().tasks_hint)
        .expect("manual kernels analyze");
    let config = (w.manual_config)(&summary);
    let compiled = framework
        .compile_with_config(&w.manual_spec, &config)
        .unwrap_or_else(|e| panic!("{} manual flow: {e}", w.name));
    Design {
        name: w.name,
        accelerator: compiled.accelerator,
        lambda: w.manual_spec,
        fallback: w.spec,
        gen_input: shared_closure_input(k),
    }
}

/// The designs a compile workload selected under each DSE seed, served to
/// the seven tenants other than S-W: one registry per DSE seed, since the
/// selected designs, and so their execution cost, differ by seed.
fn deployed(cb: &CompileBench, tally: &CompileTally, sizes: &Sizes, seed: u64) -> Vec<ServeBench> {
    tally
        .first_results(cb.kernels().len())
        .map(|firsts| {
            let designs = firsts
                .iter()
                .zip(cb.kernels())
                .enumerate()
                .filter(|(_, (_, w))| w.name != "S-W")
                .filter_map(|(k, (c, w))| Some((k, (c.as_ref()?, w))))
                .map(|(k, (c, w))| Design {
                    name: w.name,
                    accelerator: c.accelerator.clone(),
                    lambda: w.spec.clone(),
                    fallback: w.spec.clone(),
                    gen_input: shared_closure_input(k),
                })
                .collect();
            ServeBench::new(designs, sizes.deploy, seed)
        })
        .collect()
}

/// Share of a run's measured time spent on the workload's own path; the
/// other path gets the rest. The two interleave unit by unit, so both are
/// measured across the whole run and see the same host.
const PRIMARY_SHARE: f64 = 0.75;

/// The compile path over a run.
struct CompilePath {
    bench: CompileBench,
    tally: CompileTally,
    /// Per-layer measurements; `Some` in a traced run.
    layers: Option<CompileLayers>,
    plain_ms: Vec<f64>,
    traced_ms: Vec<f64>,
}

impl CompilePath {
    fn new(bench: CompileBench, trace: bool) -> Self {
        CompilePath {
            tally: CompileTally::new(&bench),
            bench,
            layers: trace.then(CompileLayers::default),
            plain_ms: Vec::new(),
            traced_ms: Vec::new(),
        }
    }

    /// One round; in a traced run, an untraced and a traced round.
    fn unit(&mut self) {
        self.plain_ms.push(self.bench.round(&mut self.tally));
        if let Some(layers) = &mut self.layers {
            self.traced_ms
                .push(self.bench.traced_round(&mut self.tally, layers));
        }
    }
}

/// The serving path over a run.
struct ServePath {
    /// Registries served in turn, one call each.
    benches: Vec<ServeBench>,
    calls: usize,
    tally: ServeTally,
    /// Per-layer measurements; `Some` in a traced run.
    layers: Option<ServeLayers>,
}

impl ServePath {
    /// One `serve` call; in a traced run, an untraced and a traced call.
    fn unit(&mut self) {
        let n = self.benches.len();
        let bench = &mut self.benches[self.calls % n];
        self.calls += 1;
        bench.call(&mut self.tally);
        if let Some(layers) = &mut self.layers {
            bench.traced_call(&mut self.tally, layers);
        }
    }
}

/// One timed set-up.
fn timed_setup(kind: Kind, seed: u64, sizes: &Sizes, times: &mut Vec<f64>) -> Bench {
    let t0 = Instant::now();
    let bench = setup(kind, seed, sizes);
    times.push(t0.elapsed().as_secs_f64());
    bench
}

/// Runs one workload for `seconds` and reports every end-to-end metric
/// (`trace == false`) or every per-layer metric (`trace == true`).
pub fn run(kind: Kind, seed: u64, seconds: f64, trace: bool, sizes: &Sizes) -> Report {
    let mut setup_s = Vec::new();
    let (compile_bench, serve_bench) = timed_setup(kind, seed, sizes, &mut setup_s);
    let primary_compile = serve_bench.is_none();
    let mut compile = CompilePath::new(compile_bench, trace);
    let mut serve = ServePath {
        benches: serve_bench.into_iter().collect(),
        calls: 0,
        tally: ServeTally::default(),
        layers: trace.then(ServeLayers::default),
    };

    // Units alternate so the workload's own path gets PRIMARY_SHARE of the
    // time; further set-ups run between units, up to `setup_reps`.
    let start = Instant::now();
    let (mut own_s, mut other_s) = (0.0, 0.0);
    while own_s == 0.0 || other_s == 0.0 || start.elapsed().as_secs_f64() < seconds {
        let own_turn = own_s * (1.0 - PRIMARY_SHARE) <= other_s * PRIMARY_SHARE;
        let compile_turn = own_turn == primary_compile;
        if !compile_turn && serve.benches.is_empty() {
            serve.benches = deployed(&compile.bench, &compile.tally, sizes, seed);
        }
        let t0 = Instant::now();
        if compile_turn {
            compile.unit();
        } else {
            serve.unit();
        }
        let spent = t0.elapsed().as_secs_f64();
        if own_turn {
            own_s += spent;
        } else {
            other_s += spent;
        }
        if setup_s.len() < sizes.setup_reps {
            timed_setup(kind, seed, sizes, &mut setup_s);
        }
    }
    if let Some(layers) = &mut compile.layers {
        compile
            .bench
            .time_evaluations(sizes.estimate_points, layers);
    }
    let peak_rss_mb = proc_status_mb("VmHWM");
    let (ct, st) = (&compile.tally, &serve.tally);

    let mut notes = vec![
        format!(
            "workload {} seed {seed} seconds {seconds} trace {}",
            kind.name(),
            u8::from(trace)
        ),
        format!(
            "compile: {} calls, {} failed; p90 {:.4} ms over {} timed calls",
            ct.attempted,
            ct.failed,
            ct.p90_ms(),
            ct.samples()
        ),
        format!(
            "serve: {} untraced calls, {} requests, {} failed",
            st.wall_ms.len(),
            st.attempted,
            st.failed
        ),
    ];
    let mut metrics = Vec::new();
    match (&compile.layers, &serve.layers) {
        (Some(c), Some(s)) => {
            metrics.extend(c.metrics());
            metrics.extend(s.metrics());
            let overhead = if primary_compile {
                median(&compile.traced_ms) / median(&compile.plain_ms)
            } else {
                median(&s.traced_ms) / median(&st.wall_ms)
            };
            metrics.push(("trace.overhead_ratio", overhead, "ratio"));
        }
        _ => {
            metrics.push(("setup_s", median(&setup_s), "s"));
            metrics.push(("peak_rss_mb", peak_rss_mb, "MB"));
            match ct.end_to_end() {
                Some(m) => metrics.extend(m),
                None => notes.push("compile metrics missing: a kernel never compiled".into()),
            }
            if st.req_per_s.is_empty() {
                notes.push("serve metrics missing: no serve call succeeded".into());
            } else {
                metrics.extend(st.end_to_end());
                notes.push(format!(
                    "sim latency over {} completed requests per call",
                    st.latency_ms.len()
                ));
            }
        }
    }
    let first_error = ct.first_error.clone().or(st.first_error.clone());
    Report {
        correct: first_error.is_none() && metrics.iter().all(|m| m.1.is_finite()),
        attempted: ct.attempted + st.attempted,
        failed: ct.failed + st.failed,
        first_error,
        metrics,
        notes,
    }
}

/// Parsed command line.
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
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                kind = Some(
                    Kind::ALL
                        .into_iter()
                        .find(|k| k.name() == value)
                        .ok_or(format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err("--seconds must be a non-negative number".into());
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
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        eprintln!(
            "usage: perfbench --workload <compile-s2fa|compile-vanilla|serve-mix|serve-many> \
             --seed <n> --seconds <s> --trace <0|1>"
        );
        std::process::exit(2);
    });
    let report = run(args.kind, args.seed, args.seconds, args.trace, &Sizes::FULL);
    for line in &report.notes {
        println!("# {line}");
    }
    for (name, value, unit) in &report.metrics {
        println!("# {name:<26} {value:>14.6} {unit}");
    }
    if let Some(e) = &report.first_error {
        eprintln!("perfbench: check failed: {e}");
    }
    println!("{}", report.json());
    if !report.correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests;
