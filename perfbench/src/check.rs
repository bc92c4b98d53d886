//! Output checks against computations that do not go through the code
//! under test: the `sjvm` bytecode interpreter running the lambda, the
//! workloads' native Rust references, a fresh estimator call, and the
//! serving model's own invariants.
//!
//! Every check returns `Err(reason)` on a mismatch; the caller counts the
//! operation as failed.

use s2fa::blaze::serving::{Disposition, ServeOutcome};
use s2fa::blaze::{AccelTimeModel, Accelerator, ExecutionPath};
use s2fa::hlssim::Estimator;
use s2fa::sjvm::{HostValue, Interp, KernelSpec, Shape};
use s2fa::CompiledAccelerator;
use s2fa_workloads::{aes, kmeans, knn, lls, lr, pr, svm, sw};

/// Strings become byte arrays and objects become tuples, so outputs of
/// the interpreter and of the accelerator's deserializer compare equal.
pub fn canon(v: &HostValue) -> HostValue {
    match v {
        HostValue::Str(s) => HostValue::Arr(s.bytes().map(|b| HostValue::I(b as i64)).collect()),
        HostValue::Tuple(vs) | HostValue::Obj(_, vs) => {
            HostValue::Tuple(vs.iter().map(canon).collect())
        }
        HostValue::Arr(vs) => HostValue::Arr(vs.iter().map(canon).collect()),
        other => other.clone(),
    }
}

/// Pads string and array leaves to the record shape, as the serializer
/// pads the bytes it sends to the accelerator.
pub fn pad_to_shape(v: &HostValue, shape: &Shape) -> HostValue {
    match (v, shape) {
        (HostValue::Str(s), Shape::Array(_, n)) => {
            let mut bytes: Vec<HostValue> = s.bytes().map(|b| HostValue::I(b as i64)).collect();
            bytes.resize(*n as usize, HostValue::I(0));
            HostValue::Arr(bytes)
        }
        (HostValue::Arr(items), Shape::Array(_, n)) => {
            let mut items = items.clone();
            let zero = match items.first() {
                Some(HostValue::F(_)) => HostValue::F(0.0),
                _ => HostValue::I(0),
            };
            items.resize(*n as usize, zero);
            HostValue::Arr(items)
        }
        (HostValue::Tuple(vs) | HostValue::Obj(_, vs), Shape::Composite(fs)) => {
            HostValue::Tuple(vs.iter().zip(fs).map(|(v, f)| pad_to_shape(v, f)).collect())
        }
        (v, Shape::Bcast(inner)) => pad_to_shape(v, inner),
        _ => v.clone(),
    }
}

/// `got[i]` must equal the interpreter running `spec`'s lambda on
/// `records[i]`.
pub fn against_interpreter(
    spec: &KernelSpec,
    records: &[HostValue],
    got: &[HostValue],
) -> Result<(), String> {
    if got.len() != records.len() {
        return Err(format!(
            "{}: {} outputs for {} records",
            spec.name,
            got.len(),
            records.len()
        ));
    }
    let mut interp = Interp::new(&spec.classes, &spec.methods);
    for (i, (rec, out)) in records.iter().zip(got).enumerate() {
        let padded = pad_to_shape(rec, &spec.input_shape);
        let (want, _) = interp
            .run(spec.entry, std::slice::from_ref(&padded))
            .map_err(|e| format!("{}: interpreter failed on record {i}: {e}", spec.name))?;
        if canon(&want) != canon(out) {
            return Err(format!(
                "{}: record {i} differs from the interpreter",
                spec.name
            ));
        }
    }
    Ok(())
}

/// Numeric leaves of a value, depth first (integers as `f64`).
fn leaves(v: &HostValue) -> Vec<f64> {
    fn walk(v: &HostValue, out: &mut Vec<f64>) {
        match v {
            HostValue::I(x) => out.push(*x as f64),
            HostValue::F(x) => out.push(*x),
            HostValue::Str(s) => out.extend(s.bytes().map(f64::from)),
            HostValue::Arr(vs) | HostValue::Tuple(vs) | HostValue::Obj(_, vs) => {
                vs.iter().for_each(|v| walk(v, out))
            }
        }
    }
    let mut out = Vec::new();
    walk(v, &mut out);
    out
}

/// The native reference of the user lambda of workload `name` on one
/// record, as numeric leaves.
fn reference(name: &str, rec: &HostValue) -> Result<Vec<f64>, String> {
    let fields = |n: usize| -> Result<Vec<&HostValue>, String> {
        match rec {
            HostValue::Tuple(vs) | HostValue::Obj(_, vs) if vs.len() == n => {
                Ok(vs.iter().collect())
            }
            _ => Err(format!("{name}: record is not a {n}-tuple")),
        }
    };
    let ints = |v: &HostValue| leaves(v).iter().map(|&x| x as i64).collect::<Vec<i64>>();
    Ok(match name {
        "PR" => vec![pr::reference(&leaves(rec))],
        "KMeans" => {
            let f = fields(2)?;
            vec![kmeans::reference(&leaves(f[0]), &leaves(f[1])) as f64]
        }
        "KNN" => {
            let f = fields(3)?;
            vec![knn::reference(&leaves(f[0]), &leaves(f[1]), &ints(f[2])) as f64]
        }
        "LR" | "SVM" | "LLS" => {
            let f = fields(3)?;
            let (x, w) = (leaves(f[0]), leaves(f[2]));
            let y = leaves(f[1])[0];
            match name {
                "LR" => lr::reference(&x, y, &w),
                "SVM" => svm::reference(&x, y, &w),
                _ => lls::reference(&x, y, &w),
            }
        }
        "AES" => aes::reference(&ints(rec))
            .into_iter()
            .map(|x| x as f64)
            .collect(),
        "S-W" => {
            let f = fields(2)?;
            let bytes = |v: &HostValue| ints(v).into_iter().map(|b| b as u8).collect::<Vec<u8>>();
            let (score, pos) = sw::reference(&bytes(f[0]), &bytes(f[1]));
            vec![score as f64, pos as f64]
        }
        other => return Err(format!("no native reference for workload `{other}`")),
    })
}

/// `got[i]` must equal workload `name`'s native reference on
/// `records[i]` (floats to a relative 1e-9: the reference need not
/// associate sums as the kernel does).
pub fn against_reference(
    name: &str,
    records: &[HostValue],
    got: &[HostValue],
) -> Result<(), String> {
    for (i, (rec, out)) in records.iter().zip(got).enumerate() {
        let want = reference(name, rec)?;
        let have = leaves(out);
        let close = want.len() == have.len()
            && want
                .iter()
                .zip(&have)
                .all(|(w, h)| (w - h).abs() <= 1e-9 * w.abs().max(1.0));
        if !close {
            return Err(format!(
                "{name}: record {i} differs from the native reference"
            ));
        }
    }
    Ok(())
}

/// Checks one `S2fa::compile` result: the DSE's best estimate equals a
/// fresh estimator call on the same point (no engine cache, no subtree
/// store), and the design is feasible.
pub fn compiled(c: &CompiledAccelerator, fresh: &Estimator) -> Result<(), String> {
    let dse = c.dse.as_ref().ok_or("compile returned no DSE outcome")?;
    let (design, est) = dse.best.as_ref().ok_or("DSE found no design")?;
    if *est != fresh.evaluate(&c.summary, design) {
        return Err(format!(
            "{}: DSE estimate differs from a fresh Estimator::evaluate",
            c.summary.name
        ));
    }
    if !est.is_feasible() || !c.estimate.is_feasible() {
        return Err(format!("{}: selected design is infeasible", c.summary.name));
    }
    Ok(())
}

/// Two rounds selected the same design and packaged the same kernel.
pub fn same_design(a: &CompiledAccelerator, b: &CompiledAccelerator) -> Result<(), String> {
    let same = a.design == b.design
        && a.estimate == b.estimate
        && same_accelerator(&a.accelerator, &b.accelerator);
    if same {
        Ok(())
    } else {
        Err(format!(
            "{}: rounds selected different designs",
            a.summary.name
        ))
    }
}

fn same_accelerator(a: &Accelerator, b: &Accelerator) -> bool {
    a.kernel == b.kernel && a.input_layout == b.input_layout && a.output_layout == b.output_layout
}

/// What the serve checks need to know about one tenant.
pub struct TenantCheck<'a> {
    /// The lambda the served design implements.
    pub lambda: &'a KernelSpec,
    /// Workload name, when its native reference models `lambda`.
    pub reference: Option<&'a str>,
    /// The served design's time model.
    pub model: AccelTimeModel,
    /// Records carried by each of the tenant's requests.
    pub records_per_request: usize,
}

/// Checks one `ServingRuntime::serve` outcome and returns the ids of the
/// requests that failed, with the first reason.
///
/// * every submitted request ends in exactly one state, and
///   `submitted = completed + rejected`;
/// * nothing is rejected and nothing takes the JVM fallback;
/// * every latency is at least the modelled service time of the
///   request's records alone;
/// * the outputs of the `sampled` requests (id, records) equal the
///   interpreter running the served design's lambda.
pub fn serve(
    outcome: &ServeOutcome,
    submitted: usize,
    tenants: &[TenantCheck],
    sampled: &[(u64, Vec<HostValue>)],
) -> (Vec<u64>, Option<String>) {
    let mut failed = Vec::new();
    let mut first: Option<String> = None;
    let mut fail = |id: u64, why: String, failed: &mut Vec<u64>| {
        failed.push(id);
        first.get_or_insert(why);
    };
    let s = &outcome.stats;
    let ids_ok = outcome.outcomes.len() == submitted
        && outcome
            .outcomes
            .iter()
            .enumerate()
            .all(|(i, o)| o.request == i as u64);
    if !ids_ok || s.submitted as usize != submitted || s.submitted != s.completed() + s.rejected {
        let why = format!(
            "conservation: {submitted} sent, {} outcomes, stats {} submitted = {} completed + {} rejected",
            outcome.outcomes.len(),
            s.submitted,
            s.completed(),
            s.rejected
        );
        return ((0..submitted as u64).collect(), Some(why));
    }
    for o in &outcome.outcomes {
        let t = &tenants[o.tenant];
        match &o.disposition {
            Disposition::Rejected { reason, .. } => fail(
                o.request,
                format!("request {} rejected ({})", o.request, reason.as_str()),
                &mut failed,
            ),
            Disposition::Completed {
                path: ExecutionPath::JvmFallback,
                ..
            } => fail(
                o.request,
                format!("request {} fell back to the JVM", o.request),
                &mut failed,
            ),
            Disposition::Completed {
                output, latency_ms, ..
            } => {
                let alone = t.model.batch_ms(t.records_per_request as u64);
                if output.len() != t.records_per_request {
                    fail(
                        o.request,
                        format!(
                            "request {} has {} outputs for {} records",
                            o.request,
                            output.len(),
                            t.records_per_request
                        ),
                        &mut failed,
                    );
                } else if *latency_ms < alone * (1.0 - 1e-9) {
                    fail(
                        o.request,
                        format!(
                            "request {} latency {latency_ms} ms below its own service time {alone} ms",
                            o.request
                        ),
                        &mut failed,
                    );
                }
            }
        }
    }
    for (id, records) in sampled {
        let o = &outcome.outcomes[*id as usize];
        let Disposition::Completed { output, .. } = &o.disposition else {
            continue; // already counted as rejected
        };
        let t = &tenants[o.tenant];
        let verdict =
            against_interpreter(t.lambda, records, output).and_then(|()| match t.reference {
                Some(name) => against_reference(name, records, output),
                None => Ok(()),
            });
        if let Err(why) = verdict {
            if !failed.contains(id) {
                fail(*id, why, &mut failed);
            }
        }
    }
    (failed, first)
}
