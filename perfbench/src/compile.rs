//! The compile path: `S2fa::compile` over the eight Table-2 kernels.

use crate::check;
use crate::stats::{geomean, median, ms_since, percentile};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use s2fa::dse::{run_dse, DesignSpace, EvalEngine};
use s2fa::hlsir::analysis;
use s2fa::hlssim::Estimator;
use s2fa::lint::{dataflow_checks, verify_function};
use s2fa::merlin::{apply_structural, DesignConfig};
use s2fa::{compile_kernel, CompiledAccelerator, S2fa, S2faOptions};
use s2fa_workloads::Workload;
use std::time::Instant;

/// DSE seeds each run derives from its `--seed`: the selected design,
/// its estimate and the DSE's length all depend on the seed, so a run
/// compiles every kernel under several and reports geometric means.
pub const DSE_SEEDS: u64 = 16;

/// The kernels, one framework per DSE seed, and what the checks compare
/// against.
pub struct CompileBench {
    kernels: Vec<Workload>,
    frameworks: Vec<S2fa>,
    fresh: Estimator,
    seed: u64,
    /// Records each kernel's first accelerator is checked on.
    check_records: usize,
}

impl CompileBench {
    /// `options` under the [`DSE_SEEDS`] DSE seeds derived from `seed`.
    pub fn new(
        kernels: Vec<Workload>,
        options: S2faOptions,
        seed: u64,
        check_records: usize,
    ) -> Self {
        let frameworks = (0..DSE_SEEDS)
            .map(|j| {
                let mut o = options.clone();
                o.dse.rng_seed = seed.wrapping_mul(DSE_SEEDS).wrapping_add(j);
                S2fa::new(o)
            })
            .collect();
        CompileBench {
            kernels,
            frameworks,
            fresh: Estimator::new(),
            seed,
            check_records,
        }
    }

    /// The kernels compiled in every round.
    pub fn kernels(&self) -> &[Workload] {
        &self.kernels
    }

    /// Calls per round: every kernel under every DSE seed.
    pub fn calls_per_round(&self) -> usize {
        self.kernels.len() * self.frameworks.len()
    }

    /// Call `i` of a round: (kernel index, framework).
    fn call(&self, i: usize) -> (usize, &S2fa) {
        (
            i % self.kernels.len(),
            &self.frameworks[i / self.kernels.len()],
        )
    }

    /// Call `i` of a round: one `S2fa::compile`, timed from outside and
    /// then checked. Returns the wall time in ms.
    fn compile_one(&self, i: usize, tally: &mut CompileTally) -> f64 {
        let (k, framework) = self.call(i);
        let spec = &self.kernels[k].spec;
        let t0 = Instant::now();
        let result = framework.compile(spec);
        let ms = ms_since(t0);
        tally.per_call_ms[i].push(ms);
        tally.attempted += 1;
        let verdict = result
            .map_err(|e| format!("{}: compile failed: {e}", spec.name))
            .and_then(|c| self.check(i, c, tally));
        if let Err(why) = verdict {
            tally.failed += 1;
            tally.first_error.get_or_insert(why);
        }
        ms
    }

    /// Checks the result of call `i`. The first accelerator of each call
    /// runs on seeded records against the interpreter and the native
    /// reference; every later round must select the same design and
    /// package the same kernel.
    fn check(
        &self,
        i: usize,
        c: CompiledAccelerator,
        tally: &mut CompileTally,
    ) -> Result<(), String> {
        check::compiled(&c, &self.fresh)?;
        match &tally.first[i] {
            Some(first) => check::same_design(first, &c),
            None => {
                let k = self.call(i).0;
                let w = &self.kernels[k];
                let records = (w.gen_input)(self.check_records, self.seed ^ (k as u64 + 1));
                let (out, _) = c
                    .accelerator
                    .run_batch(&records)
                    .map_err(|e| format!("{}: run_batch failed: {e}", w.name))?;
                check::against_interpreter(&w.spec, &records, &out)?;
                check::against_reference(w.name, &records, &out)?;
                tally.first[i] = Some(c);
                Ok(())
            }
        }
    }

    /// One round: every kernel in Table-2 order, under each DSE seed in
    /// turn. Returns the summed call time in ms.
    pub fn round(&self, tally: &mut CompileTally) -> f64 {
        (0..self.calls_per_round())
            .map(|i| self.compile_one(i, tally))
            .sum()
    }

    /// One traced round: per kernel, the stages `compile` runs, each
    /// called and timed from outside, then the `compile` call itself.
    /// Returns the round's timed total in ms.
    pub fn traced_round(&self, tally: &mut CompileTally, layers: &mut CompileLayers) -> f64 {
        let mut r = StageTimes::default();
        for i in 0..self.calls_per_round() {
            let (k, framework) = self.call(i);
            let w = &self.kernels[k];
            let opts = framework.options();
            let t0 = Instant::now();
            let generated = compile_kernel(&w.spec).expect("the Table-2 kernels compile");
            r.codegen += ms_since(t0);

            let t0 = Instant::now();
            verify_function(&generated.cfunc);
            r.verify += ms_since(t0);

            let t0 = Instant::now();
            let summary = analysis::summarize(&generated.cfunc, opts.tasks_hint)
                .expect("the Table-2 kernels analyze");
            DesignSpace::build(&summary);
            r.analyze += ms_since(t0);

            let t0 = Instant::now();
            let outcome = run_dse(&summary, framework.estimator(), &opts.dse);
            r.dse += ms_since(t0);
            r.evals += outcome.total_evaluations;
            r.hits += outcome.cache.hits;
            r.lookups += outcome.cache.hits + outcome.cache.misses;

            let mut design = outcome
                .best
                .expect("the Table-2 kernels have a feasible design")
                .0;
            design.normalize(&summary);
            let t0 = Instant::now();
            let (optimized, _) = apply_structural(&generated.cfunc, &design);
            r.merlin += ms_since(t0);

            let t0 = Instant::now();
            dataflow_checks(&generated.cfunc, opts.tasks_hint);
            dataflow_checks(&optimized, opts.tasks_hint);
            r.dataflow += ms_since(t0);

            r.compile += self.compile_one(i, tally);
        }
        layers.rounds.push(r);
        r.codegen + r.verify + r.analyze + r.dse + r.merlin + r.dataflow + r.compile
    }

    /// Times `Estimator::evaluate` and a fresh `EvalEngine::evaluate`,
    /// configured as `run_dse` configures it, on `points` seeded random
    /// distinct points of each kernel's design space (each point once, so
    /// the engine sees the cold misses a DSE mostly sees).
    pub fn time_evaluations(&self, points: usize, layers: &mut CompileLayers) {
        let framework = &self.frameworks[0];
        let opts = &framework.options().dse;
        let estimator = framework.estimator();
        for (k, w) in self.kernels.iter().enumerate() {
            let generated = compile_kernel(&w.spec).expect("the Table-2 kernels compile");
            let summary = analysis::summarize(&generated.cfunc, framework.options().tasks_hint)
                .expect("the Table-2 kernels analyze");
            let ds = DesignSpace::build(&summary);
            let mut rng = SmallRng::seed_from_u64(self.seed ^ 0xE57 ^ k as u64);
            let mut sample: Vec<DesignConfig> = Vec::new();
            for _ in 0..points * 4 {
                let dc = ds.decode(&ds.space().random(&mut rng));
                if !sample.contains(&dc) {
                    sample.push(dc);
                }
                if sample.len() == points {
                    break;
                }
            }
            for dc in &sample {
                let t0 = Instant::now();
                std::hint::black_box(estimator.evaluate(&summary, dc));
                layers.estimate_us.push(ms_since(t0) * 1e3);
            }
            let mut engine = EvalEngine::new(&summary, estimator);
            engine.set_caching(opts.caching);
            engine.set_prescreen(opts.prescreen || opts.dataflow_prescreen);
            for dc in &sample {
                let t0 = Instant::now();
                std::hint::black_box(engine.evaluate(dc));
                layers.evaluate_us.push(ms_since(t0) * 1e3);
            }
        }
    }
}

/// Counts, timings and first results of the `compile` calls.
#[derive(Debug)]
pub struct CompileTally {
    /// Calls made.
    pub attempted: u64,
    /// Calls that failed or failed a check.
    pub failed: u64,
    /// The first failure.
    pub first_error: Option<String>,
    /// Wall times of each call of a round.
    per_call_ms: Vec<Vec<f64>>,
    /// The first checked result of each call of a round.
    first: Vec<Option<CompiledAccelerator>>,
}

impl CompileTally {
    /// An empty tally for `cb`'s rounds.
    pub fn new(cb: &CompileBench) -> Self {
        let calls = cb.calls_per_round();
        CompileTally {
            attempted: 0,
            failed: 0,
            first_error: None,
            per_call_ms: vec![Vec::new(); calls],
            first: (0..calls).map(|_| None).collect(),
        }
    }

    /// The first checked result of each kernel, per DSE seed.
    pub fn first_results(
        &self,
        kernels: usize,
    ) -> std::slice::Chunks<'_, Option<CompiledAccelerator>> {
        self.first.chunks(kernels)
    }

    /// Timed calls pooled over all kernels.
    pub fn samples(&self) -> usize {
        self.per_call_ms.iter().map(Vec::len).sum()
    }

    /// p90 of every timed call pooled. Printed, not gated: on a shared
    /// host its run-to-run spread exceeds any usable bound (README.md).
    pub fn p90_ms(&self) -> f64 {
        percentile(&self.per_call_ms.concat(), 90.0)
    }

    /// `compile_ms_geomean`, `design_ms_geomean` and `dse_virtual_min`,
    /// each a geometric mean over every kernel under every DSE seed;
    /// `None` when some call never succeeded.
    pub fn end_to_end(&self) -> Option<[(&'static str, f64, &'static str); 3]> {
        let firsts: Vec<&CompiledAccelerator> = self
            .first
            .iter()
            .map(Option::as_ref)
            .collect::<Option<_>>()?;
        let medians: Vec<f64> = self.per_call_ms.iter().map(|v| median(v)).collect();
        let design_ms: Vec<f64> = firsts.iter().map(|c| c.estimate.time_ms).collect();
        let minutes: Vec<f64> = firsts
            .iter()
            .map(|c| c.dse.as_ref().map_or(f64::NAN, |d| d.elapsed_minutes))
            .collect();
        Some([
            ("compile_ms_geomean", geomean(&medians), "ms"),
            ("design_ms_geomean", geomean(&design_ms), "ms"),
            ("dse_virtual_min", geomean(&minutes), "vmin"),
        ])
    }
}

/// Stage times of one traced round, summed over its kernels.
#[derive(Debug, Default, Clone, Copy)]
struct StageTimes {
    codegen: f64,
    verify: f64,
    analyze: f64,
    dse: f64,
    merlin: f64,
    dataflow: f64,
    compile: f64,
    evals: u64,
    hits: u64,
    lookups: u64,
}

/// Per-round layer measurements of the traced compile rounds.
#[derive(Debug, Default)]
pub struct CompileLayers {
    rounds: Vec<StageTimes>,
    estimate_us: Vec<f64>,
    evaluate_us: Vec<f64>,
}

impl CompileLayers {
    /// Medians over the traced rounds (each round summed over kernels).
    pub fn metrics(&self) -> Vec<(&'static str, f64, &'static str)> {
        let m =
            |f: &dyn Fn(&StageTimes) -> f64| median(&self.rounds.iter().map(f).collect::<Vec<_>>());
        vec![
            ("codegen.ms", m(&|r| r.codegen), "ms"),
            ("lint.verify_ms", m(&|r| r.verify), "ms"),
            ("analyze.ms", m(&|r| r.analyze), "ms"),
            ("dse.ms", m(&|r| r.dse), "ms"),
            ("dse.evals", m(&|r| r.evals as f64), "count"),
            (
                "dse.eval_us",
                m(&|r| r.dse * 1e3 / r.evals.max(1) as f64),
                "us",
            ),
            (
                "engine.cache_hit_ratio",
                m(&|r| r.hits as f64 / r.lookups.max(1) as f64),
                "ratio",
            ),
            ("hlssim.estimate_us", median(&self.estimate_us), "us"),
            ("engine.evaluate_us", median(&self.evaluate_us), "us"),
            ("merlin.apply_ms", m(&|r| r.merlin), "ms"),
            ("lint.dataflow_ms", m(&|r| r.dataflow), "ms"),
            (
                "compile.unattributed_ms",
                m(&|r| {
                    r.compile - (r.codegen + r.verify + r.analyze + r.dse + r.merlin + r.dataflow)
                }),
                "ms",
            ),
        ]
    }
}
