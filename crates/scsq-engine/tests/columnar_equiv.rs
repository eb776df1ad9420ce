//! Property-based equivalence of the columnar batch fast path.
//!
//! [`FusedChain::admit`] clears a whole delivered batch for the one
//! columnar walk, [`FusedChain::walk`], which either folds it into the
//! chain's absorber ([`Terminal::Fold`]) or returns the surviving rows
//! as a column ([`Terminal::Emit`]). The contract is that the result is
//! byte-identical to feeding the same elements one at a time — the
//! accumulators land in the same state (same wrapping integer sums,
//! same sequential float rounding, same strict first-best winners), the
//! emitted rows equal the per-element outputs, the end-of-stream flush
//! emits the same values, and error *messages* match, because the
//! runtime surfaces them to the client verbatim.
//!
//! The driver below mirrors the runtime's delivery path: transpose the
//! run with [`ColumnarBatch::from_values`], admit once, walk when
//! admitted, and fall back to the per-element fused path when admission
//! declines, exactly as the engine does. Runs of every length are
//! offered, as relayed column groups are at the receiver.

use proptest::prelude::*;
use scsq_engine::ops::{AggKind, MapFunc, Pipeline, Stage, StageChain};
use scsq_engine::{admission_verdicts, ArithOp, CmpOp, FusedChain, Terminal, Walked};
use scsq_ql::{ColumnarBatch, SpHandle, Value};

fn agg() -> impl Strategy<Value = AggKind> {
    prop_oneof![
        Just(AggKind::Count),
        Just(AggKind::Sum),
        Just(AggKind::Max),
        Just(AggKind::Min),
        Just(AggKind::Avg),
    ]
}

fn arith_op() -> impl Strategy<Value = ArithOp> {
    prop_oneof![Just(ArithOp::Add), Just(ArithOp::Sub), Just(ArithOp::Mul)]
}

fn cmp_op() -> impl Strategy<Value = CmpOp> {
    prop_oneof![
        Just(CmpOp::Lt),
        Just(CmpOp::Le),
        Just(CmpOp::Gt),
        Just(CmpOp::Ge),
        Just(CmpOp::Eq),
        Just(CmpOp::Ne),
    ]
}

/// Constants for arith/cmp/filter stages. String constants are legal
/// for comparisons against string columns, make arithmetic fail (an
/// error-path probe), and force the columnar admission walk to decline
/// numeric columns compared against strings.
fn rhs() -> impl Strategy<Value = Value> {
    prop_oneof![
        (-10i64..10).prop_map(Value::Integer),
        (-10.0f64..10.0).prop_map(Value::Real),
        Just(Value::Str("m".to_string())),
    ]
}

/// Strategy over stages, dominated by the vectorizable set so most
/// generated chains qualify for the columnar pass, with one map stage
/// variant to force the per-element fallback branch.
fn stage() -> impl Strategy<Value = Stage> {
    prop_oneof![
        agg().prop_map(Stage::Agg),
        Just(Stage::StreamOf),
        (0u64..8).prop_map(|limit| Stage::Take { limit }),
        Just(Stage::Bandwidth),
        Just(Stage::Map(MapFunc::Power)),
        (arith_op(), rhs()).prop_map(|(op, rhs)| Stage::Arith { op, rhs }),
        (cmp_op(), rhs()).prop_map(|(op, rhs)| Stage::Cmp { op, rhs }),
        (cmp_op(), rhs()).prop_map(|(op, rhs)| Stage::Filter { op, rhs }),
    ]
}

/// A metric sample bag; negative timestamps and byte counts are
/// generated on purpose so the bandwidth error path is exercised.
fn metric() -> impl Strategy<Value = Value> {
    (-3i64..3, -50i64..500, -10i64..100).prop_map(|(c, t, b)| {
        Value::Bag(vec![
            Value::Integer(c),
            Value::Integer(t),
            Value::Integer(b),
        ])
    })
}

/// Any value the engine can deliver, including the kinds that make
/// aggregates fail.
fn mixed_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        (-100i64..100).prop_map(Value::Integer),
        (-100.0f64..100.0).prop_map(Value::Real),
        any::<bool>().prop_map(Value::Bool),
        (8u64..256).prop_map(Value::synthetic_array),
        Just(Value::Str("x".to_string())),
        metric(),
    ]
}

/// Short strings straddling the `rhs()` comparison constant `"m"` in
/// both order and length, so string cmp/filter kernels see every
/// outcome; same-length runs additionally qualify for bulk cost
/// accounting (uniform marshaled stride).
fn word() -> impl Strategy<Value = Value> {
    prop_oneof![Just("a"), Just("m"), Just("mm"), Just("z")].prop_map(|s| Value::Str(s.to_string()))
}

/// A two-column record (non-metric multi-column shape): decomposes into
/// parallel `c0`/`c1` columns at admission.
fn record() -> impl Strategy<Value = Value> {
    ((-100i64..100), (-10.0f64..10.0))
        .prop_map(|(a, b)| Value::Bag(vec![Value::Integer(a), Value::Real(b)]))
}

/// One delivered batch: homogeneous integer / float / string / metric /
/// record runs (the shapes the columnar pass accepts) plus mixed runs
/// it must decline. One variant spans the 64-row validity-word boundary
/// so bitmap edge cases are continuously exercised.
fn batch_values() -> impl Strategy<Value = Vec<Value>> {
    prop_oneof![
        proptest::collection::vec((-100i64..100).prop_map(Value::Integer), 0..10),
        proptest::collection::vec((-100i64..100).prop_map(Value::Integer), 60..70),
        proptest::collection::vec((-100.0f64..100.0).prop_map(Value::Real), 0..10),
        proptest::collection::vec(word(), 0..10),
        proptest::collection::vec(metric(), 0..10),
        proptest::collection::vec(record(), 0..10),
        proptest::collection::vec(mixed_value(), 0..10),
    ]
}

fn pipeline(stages: Vec<Stage>) -> Pipeline {
    Pipeline {
        input: scsq_engine::InputKind::Const { values: Vec::new() },
        stages,
    }
}

/// Feeds the same batches through the interpreted chain (per element)
/// and the fused chain driven the way the runtime's delivery path
/// drives it (one admission, then the columnar walk; per-element
/// fallback on decline), comparing outputs, errors, and the
/// end-of-stream flush.
fn assert_equivalent(stages: Vec<Stage>, batches: Vec<Vec<Value>>) -> Result<(), TestCaseError> {
    let pipeline = pipeline(stages);
    let mut interpreted = StageChain::new(&pipeline);
    let mut fused = FusedChain::new(&pipeline.stages);

    for values in batches {
        // Reference: the interpreter, one element at a time.
        let mut ref_out = Vec::new();
        let mut ref_err = None;
        for v in &values {
            match interpreted.process(v.clone(), None) {
                Ok(mut o) => ref_out.append(&mut o),
                Err(e) => {
                    ref_err = Some(e);
                    break;
                }
            }
        }

        // Candidate: the deliver-path driver.
        let admitted = fused.admit(&ColumnarBatch::from_values(&values));
        match admitted.map(|a| (a.terminal, fused.walk(a))) {
            Some((Terminal::Fold, Ok(Walked::Folded))) => {
                // The fold succeeded, so the interpreter must have too,
                // and an absorber emits nothing before end of stream.
                prop_assert!(ref_err.is_none(), "interpreter failed, columnar did not");
                prop_assert!(ref_out.is_empty(), "absorbed batch must emit nothing");
            }
            Some((Terminal::Emit, Ok(Walked::Emitted(out, sel)))) => {
                prop_assert!(
                    ref_err.is_none(),
                    "interpreter failed, the relay pass did not"
                );
                if let Some(s) = &sel {
                    prop_assert_eq!(s.rows().len(), out.rows(), "selection covers the output");
                }
                let got: Vec<Value> = (0..out.rows())
                    .map(|j| out.value_at(j).expect("relay outputs are valid"))
                    .collect();
                prop_assert_eq!(&ref_out, &got, "relayed rows");
            }
            Some((terminal, Ok(walked))) => {
                return Err(TestCaseError::fail(format!(
                    "a {terminal:?} batch walked as {walked:?}"
                )))
            }
            Some((_, Err(e))) => {
                let Some(a) = ref_err else {
                    return Err(TestCaseError::fail(format!(
                        "columnar pass failed, interpreter did not: {e}"
                    )));
                };
                prop_assert_eq!(a.to_string(), e.to_string(), "error messages");
                return Ok(());
            }
            None => {
                let mut out = Vec::new();
                let mut err = None;
                for v in &values {
                    if let Err(e) = fused.process_into(v.clone(), None, &mut out) {
                        err = Some(e);
                        break;
                    }
                }
                match (ref_err, err) {
                    (None, None) => prop_assert_eq!(&ref_out, &out, "per-element outputs"),
                    (Some(a), Some(b)) => {
                        prop_assert_eq!(a.to_string(), b.to_string(), "error messages");
                        return Ok(()); // the runtime stops at the first error
                    }
                    (a, b) => {
                        return Err(TestCaseError::fail(format!(
                            "one path failed, the other did not: {a:?} vs {b:?}"
                        )))
                    }
                }
            }
        }
    }

    match (interpreted.finish(), fused.finish()) {
        (Ok(a), Ok(b)) => prop_assert_eq!(a, b, "end-of-stream flush"),
        (Err(a), Err(b)) => prop_assert_eq!(a.to_string(), b.to_string(), "flush errors"),
        (a, b) => {
            return Err(TestCaseError::fail(format!(
                "flush disagreement: {a:?} vs {b:?}"
            )))
        }
    }
    Ok(())
}

/// Stages legal in a relay chain (re-emitting: no absorber).
fn relay_extra() -> impl Strategy<Value = Stage> {
    prop_oneof![
        Just(Stage::StreamOf),
        (0u64..80).prop_map(|limit| Stage::Take { limit }),
        relay_transform(),
    ]
}

/// A transform stage with constants that sometimes eliminate every row
/// (an empty selection) and sometimes keep them all.
fn relay_rhs() -> impl Strategy<Value = Value> {
    prop_oneof![
        (-10i64..10).prop_map(Value::Integer),
        Just(Value::Integer(1000)),
        (-10.0f64..10.0).prop_map(Value::Real),
    ]
}

fn relay_transform() -> impl Strategy<Value = Stage> {
    prop_oneof![
        (arith_op(), relay_rhs()).prop_map(|(op, rhs)| Stage::Arith { op, rhs }),
        (cmp_op(), relay_rhs()).prop_map(|(op, rhs)| Stage::Cmp { op, rhs }),
        (cmp_op(), relay_rhs()).prop_map(|(op, rhs)| Stage::Filter { op, rhs }),
    ]
}

/// One relayable batch: numeric runs, including lengths straddling the
/// 64-row validity word.
fn relay_batch() -> impl Strategy<Value = Vec<Value>> {
    prop_oneof![
        proptest::collection::vec((-100i64..100).prop_map(Value::Integer), 0..10),
        proptest::collection::vec((-100i64..100).prop_map(Value::Integer), 60..70),
        proptest::collection::vec((-100.0f64..100.0).prop_map(Value::Real), 0..10),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The columnar walk (with its per-element fallback) agrees
    /// with the interpreted reference on outputs, accumulator state (via
    /// the flush), and errors, over randomized chains and batch streams.
    #[test]
    fn columnar_equals_interpreted(
        stages in proptest::collection::vec(stage(), 1..4),
        batches in proptest::collection::vec(batch_values(), 0..5),
    ) {
        assert_equivalent(stages, batches)?;
    }

    /// Relay chains (transforms + take, no absorber) produce — via
    /// column kernels, selection vectors, and one survivor gather —
    /// exactly the interpreter's per-element outputs, including batch
    /// lengths straddling the 64-row validity word and filters that
    /// leave an empty selection.
    #[test]
    fn relayed_equals_interpreted(
        before in proptest::collection::vec(relay_extra(), 0..2),
        transform in relay_transform(),
        after in proptest::collection::vec(relay_extra(), 0..2),
        batches in proptest::collection::vec(relay_batch(), 0..4),
    ) {
        let mut stages = before;
        stages.push(transform);
        stages.extend(after);
        assert_equivalent(stages, batches)?;
    }
}

/// The columnar pass fires for an absorber-terminated chain and leaves
/// the same accumulator state as per-element execution.
#[test]
fn columnar_pass_absorbs_metric_batches() {
    let pipeline = pipeline(vec![Stage::StreamOf, Stage::Bandwidth]);
    let sample = |t: i64, b: i64| {
        Value::Bag(vec![
            Value::Integer(0),
            Value::Integer(t),
            Value::Integer(b),
        ])
    };
    let values = vec![sample(100, 10), sample(250, 20), sample(900, 30)];

    let mut fused = FusedChain::new(&pipeline.stages);
    let admit = fused
        .admit(&ColumnarBatch::from_values(&values))
        .expect("a metric run into bandwidth is admitted");
    assert!(matches!(fused.walk(admit).unwrap(), Walked::Folded));

    let mut interpreted = StageChain::new(&pipeline);
    for v in values {
        interpreted.process(v, None).unwrap();
    }
    assert_eq!(fused.finish().unwrap(), interpreted.finish().unwrap());
}

/// A chain of pass-through stages alone (`streamof`, `take`) has no
/// columnar shape: with no absorber there is nothing to fold, and with
/// no `arith`/`cmp`/`filter` there is nothing for a relay to rewrite, so
/// admission declines and the per-element path forwards the rows.
#[test]
fn relay_chains_decline_the_columnar_pass() {
    for stages in [
        vec![Stage::StreamOf],
        vec![Stage::Take { limit: 4 }],
        vec![Stage::StreamOf, Stage::Take { limit: 4 }],
    ] {
        let fused = FusedChain::new(&stages);
        let values: Vec<Value> = (0..6).map(Value::Integer).collect();
        assert!(fused.admit(&ColumnarBatch::from_values(&values)).is_none());
    }
}

/// `explain`'s verdicts and admission come from one classifier: for one
/// chain of each verdict kind, a well-typed integer batch is admitted as
/// `Fold` exactly when the chain prints `columnar`, as `Emit` exactly
/// when it prints `columnar (relay)`, and declined otherwise.
#[test]
fn admission_agrees_with_explain_verdicts() {
    let arith = Stage::Arith {
        op: ArithOp::Add,
        rhs: Value::Integer(1),
    };
    let filter = Stage::Filter {
        op: CmpOp::Gt,
        rhs: Value::Integer(3),
    };
    let radix = Stage::RadixCombine {
        first: SpHandle(1),
        second: SpHandle(2),
    };
    let chains = [
        // columnar
        vec![Stage::Agg(AggKind::Sum)],
        // columnar, then scalar: after the absorber
        vec![Stage::StreamOf, Stage::Agg(AggKind::Count), arith.clone()],
        // columnar (relay)
        vec![arith, filter],
        // scalar: chain neither absorbs nor transforms
        vec![Stage::StreamOf, Stage::Take { limit: 4 }],
        // scalar: no whole-column kernel / chain blocked by it
        vec![radix, Stage::Agg(AggKind::Count)],
    ];
    let values: Vec<Value> = (0..6).map(Value::Integer).collect();
    let cols = ColumnarBatch::from_values(&values);
    let mut kinds = std::collections::BTreeSet::new();
    for stages in chains {
        let verdicts = admission_verdicts(&stages);
        kinds.extend(verdicts.iter().cloned());
        let expected = if verdicts.iter().any(|v| v == "columnar") {
            Some(Terminal::Fold)
        } else if verdicts.iter().all(|v| v == "columnar (relay)") {
            Some(Terminal::Emit)
        } else {
            assert!(verdicts.iter().all(|v| v.starts_with("scalar: ")));
            None
        };
        let fused = FusedChain::new(&stages);
        assert_eq!(
            fused.admit(&cols).map(|a| a.terminal),
            expected,
            "{stages:?}: {verdicts:?}"
        );
    }
    assert_eq!(kinds.len(), 6, "every verdict kind is covered: {kinds:?}");
}
