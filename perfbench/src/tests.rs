//! Self-tests of the benchmark at small size. Run from the repository
//! root with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use crate::check::{self, TenantCheck};
use crate::serve::{shared_closure_input, Plan, CONFIG};
use crate::{run, Kind, Sizes};
use s2fa::blaze::serving::{generate, Disposition, RejectReason};
use s2fa::blaze::{AcceleratorRegistry, ServingRuntime, TenantSpec};
use s2fa::sjvm::HostValue;
use s2fa::trace::NullSink;
use s2fa::{S2fa, S2faOptions};
use s2fa_obs::{Json, Profiler};
use s2fa_workloads::all_workloads;

const TINY_PLAN: Plan = Plan {
    requests_per_tenant: 4,
    records_per_request: 2,
    sampled: 4,
};

const TINY: Sizes = Sizes {
    setup_reps: 1,
    check_records: 1,
    mix: TINY_PLAN,
    many: TINY_PLAN,
    deploy: TINY_PLAN,
    estimate_points: 4,
};

/// `(name, unit)` of the metrics BENCHMARK.json declares under `key`.
fn declared(key: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let doc = Json::parse(&text).expect("BENCHMARK.json parses");
    let mut out: Vec<(String, String)> = doc
        .get(key)
        .and_then(Json::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect();
    out.sort();
    out
}

#[test]
fn every_declared_metric_appears_with_its_unit() {
    for trace in [false, true] {
        let want = declared(if trace { "per_layer" } else { "end_to_end" });
        for kind in Kind::ALL {
            let report = run(kind, 7, 0.0, trace, &TINY);
            assert!(report.correct, "{kind:?}: {:?}", report.first_error);
            assert!(report.attempted >= 1 && report.failed == 0, "{kind:?}");
            let mut got: Vec<(String, String)> = report
                .metrics
                .iter()
                .map(|(n, _, u)| (n.to_string(), u.to_string()))
                .collect();
            got.sort();
            assert_eq!(got, want, "{kind:?} trace {trace}");

            let line = Json::parse(&report.json()).expect("the result line is JSON");
            let keys: Vec<&String> = line.as_obj().expect("an object").keys().collect();
            assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
            for (name, value, _) in &report.metrics {
                let printed = line
                    .get("metrics")
                    .and_then(|m| m.get(name))
                    .and_then(|m| m.get("value"));
                assert_eq!(
                    printed.and_then(Json::as_f64),
                    Some(*value),
                    "{name} keeps all digits"
                );
            }
        }
    }
}

/// A real outcome of serving PR's manual design to one tenant.
fn served_pr() -> (
    s2fa::blaze::serving::ServeOutcome,
    Vec<TenantSpec>,
    s2fa_workloads::Workload,
    s2fa::blaze::AccelTimeModel,
) {
    let w = all_workloads().remove(0);
    assert_eq!(w.name, "PR");
    let framework = S2fa::new(S2faOptions::default());
    let generated = s2fa::compile_kernel(&w.manual_spec).expect("compiles");
    let summary = s2fa::hlsir::analysis::summarize(&generated.cfunc, 1024).expect("analyzes");
    let compiled = framework
        .compile_with_config(&w.manual_spec, &(w.manual_config)(&summary))
        .expect("manual flow");
    let model = compiled.accelerator.time_model.expect("time model");
    let registry = AcceleratorRegistry::new();
    let tenants = vec![TenantSpec {
        name: "PR".into(),
        accel_id: compiled.accelerator.id.clone(),
        fallback: w.spec.clone(),
        rate_per_ms: 0.5 / model.batch_ms(2),
        requests: 12,
        records_per_request: 2,
        gen_input: shared_closure_input(0),
        seed: 3,
    }];
    registry.register(compiled.accelerator);
    let outcome = ServingRuntime::new(&registry, CONFIG)
        .expect("valid config")
        .serve(&tenants, &NullSink, &Profiler::disabled())
        .expect("serves");
    (outcome, tenants, w, model)
}

#[test]
fn serve_checks_reject_corrupted_outcomes() {
    let (outcome, tenants, w, model) = served_pr();
    let checks = [TenantCheck {
        lambda: &w.manual_spec,
        reference: Some("PR"),
        model,
        records_per_request: 2,
    }];
    let requests = generate(&tenants);
    let sampled: Vec<(u64, Vec<HostValue>)> =
        requests.iter().map(|r| (r.id, r.records.clone())).collect();
    let (failed, why) = check::serve(&outcome, 12, &checks, &sampled);
    assert!(failed.is_empty(), "clean outcome flagged: {why:?}");

    let corrupt = |f: &dyn Fn(&mut s2fa::blaze::serving::ServeOutcome)| {
        let mut bad = outcome.clone();
        f(&mut bad);
        check::serve(&bad, 12, &checks, &sampled).0
    };
    // One flipped output record.
    let failed = corrupt(&|o| {
        if let Disposition::Completed { output, .. } = &mut o.outcomes[5].disposition {
            output[1] = HostValue::F(-1.0);
        }
    });
    assert_eq!(failed, [5]);
    // A latency below the request's own service time.
    let failed = corrupt(&|o| {
        if let Disposition::Completed { latency_ms, .. } = &mut o.outcomes[3].disposition {
            *latency_ms = model.batch_ms(2) / 2.0;
        }
    });
    assert_eq!(failed, [3]);
    // A rejected request.
    let failed = corrupt(&|o| {
        o.outcomes[7].disposition = Disposition::Rejected {
            reason: RejectReason::QueueFull,
            reject_ms: 0.0,
        };
    });
    assert_eq!(failed, [7]);
    // A request that ends in no state.
    assert_eq!(corrupt(&|o| drop(o.outcomes.pop())).len(), 12);
}

#[test]
fn compile_checks_reject_corrupted_results() {
    let w = all_workloads().remove(0);
    let c = S2fa::new(S2faOptions::default())
        .compile(&w.spec)
        .expect("PR compiles");
    let fresh = s2fa::hlssim::Estimator::new();
    check::compiled(&c, &fresh).expect("a clean result passes");
    check::same_design(&c, &c).expect("a result matches itself");

    let mut perturbed = c.clone();
    if let Some((_, est)) = perturbed.dse.as_mut().and_then(|d| d.best.as_mut()) {
        est.time_ms *= 1.0 + 1e-12;
    }
    assert!(
        check::compiled(&perturbed, &fresh).is_err(),
        "perturbed estimate"
    );

    let mut other = c.clone();
    other
        .design
        .buffer_bits
        .iter_mut()
        .for_each(|(_, bits)| *bits /= 2);
    assert!(check::same_design(&c, &other).is_err(), "different design");

    let records = (w.gen_input)(3, 11);
    let (mut out, _) = c.accelerator.run_batch(&records).expect("runs");
    check::against_interpreter(&w.spec, &records, &out).expect("matches the interpreter");
    check::against_reference(w.name, &records, &out).expect("matches the reference");
    out[2] = HostValue::F(out[2].as_f64().expect("a rank") + 1e-6);
    assert!(check::against_interpreter(&w.spec, &records, &out).is_err());
    assert!(check::against_reference(w.name, &records, &out).is_err());
}
