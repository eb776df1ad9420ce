//! Fused stage chains: the per-event fast path and the columnar tier.
//!
//! The recursive [`StageChain`] allocates a fresh `Vec<Value>` per stage
//! per element. That is fine at end-of-stream flush rates but dominates
//! the per-event execution path whenever train coalescing cannot fire
//! (jittered service times, data-dependent stages). A [`FusedChain`]
//! drives the same stage states breadth-first: each stage's
//! [`StageState::step`] — the one per-element definition both executors
//! share — runs over a pair of reusable ping-pong scratch buffers, and
//! the compute-cost accounting is a compact op list with a one-entry
//! memo ([`CostModel`]), so the inner loop allocates nothing per tuple.
//!
//! Correctness bar: stages are order-preserving stateful flat-maps, so
//! feeding every stage the same input sequence breadth-first yields the
//! same outputs as the interpreter's depth-first recursion, and
//! end-of-stream flushing and coalescer probes are the interpreted
//! chain's own. Byte-identical figure CSVs with fusion on or off are
//! enforced by `tests/fuse_csv.rs`.

use crate::columnar;
use crate::error::EngineError;
use crate::funcs;
use crate::ops::{AggKind, ArithOp, CmpOp, MapFunc, Stage, StageChain, StageState};
use scsq_ql::column::{Column, SelectionVector, METRIC_COLUMNS};
use scsq_ql::{ColumnarBatch, SpHandle, Value};
use scsq_sim::StateProbe;
use std::cell::OnceCell;
use std::sync::Arc;

/// One compiled compute-cost operation. Only stages that charge CPU
/// time appear; everything else is dropped at compile time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CostOp {
    /// An elementwise function charged via `funcs::map_cost_bytes`;
    /// decimating maps halve the element size seen downstream.
    Map(MapFunc),
    /// A radix combine charged one unit per element byte.
    Radix,
    /// An elementwise arithmetic transform charged one unit per element
    /// byte; numeric in, numeric out, so the size is unchanged.
    Arith,
    /// An elementwise comparison charged one unit per element byte; the
    /// boolean it emits is what downstream stages see.
    Cmp,
    /// An elementwise predicate charged one unit per element byte.
    /// Survivors keep their size; the model charges every *input*
    /// element, so elements the predicate drops still paid to be
    /// examined.
    Filter,
}

/// The cost op a stage compiles to; `None` for stages that charge no
/// CPU time.
fn cost_op(stage: &Stage) -> Option<CostOp> {
    match stage {
        Stage::Map(f) => Some(CostOp::Map(*f)),
        Stage::RadixCombine { .. } => Some(CostOp::Radix),
        Stage::Arith { .. } => Some(CostOp::Arith),
        Stage::Cmp { .. } => Some(CostOp::Cmp),
        Stage::Filter { .. } => Some(CostOp::Filter),
        _ => None,
    }
}

/// Per-run compute-cost accounting: the compiled op list plus a
/// single-entry memo. Streaming workloads feed long runs of
/// identically-sized elements, so the memo turns the per-element cost
/// walk into one comparison.
#[derive(Debug)]
pub struct CostModel {
    ops: Vec<CostOp>,
    memo: Option<(u64, u64)>,
}

impl CostModel {
    /// Compiles the cost accounting of a stage chain.
    pub fn new(stages: &[Stage]) -> CostModel {
        CostModel {
            ops: stages.iter().filter_map(cost_op).collect(),
            memo: None,
        }
    }

    /// CPU cost (in byte-equivalents) of pushing one element of
    /// `elem_bytes` marshaled bytes through the chain. Identical to
    /// walking the stage list per element: decimation halves the size
    /// seen by later stages.
    pub fn cost(&mut self, elem_bytes: u64) -> u64 {
        if self.ops.is_empty() {
            return 0;
        }
        if let Some((b, c)) = self.memo {
            if b == elem_bytes {
                return c;
            }
        }
        let mut bytes = elem_bytes;
        let mut cost = 0u64;
        for op in &self.ops {
            match op {
                CostOp::Map(f) => {
                    cost += funcs::map_cost_bytes(*f, bytes);
                    if matches!(f, MapFunc::Odd | MapFunc::Even) {
                        bytes /= 2;
                    }
                }
                CostOp::Radix | CostOp::Arith | CostOp::Filter => cost += bytes,
                CostOp::Cmp => {
                    cost += bytes;
                    // A comparison emits a marshaled boolean (tag +
                    // payload) whatever went in.
                    bytes = 2;
                }
            }
        }
        self.memo = Some((elem_bytes, cost));
        cost
    }
}

/// The runtime's per-RP executor: the interpreter's stage states driven
/// breadth-first over reusable scratch buffers, plus the chain's
/// columnar plans.
#[derive(Debug)]
pub struct FusedChain {
    chain: StageChain,
    /// `false` for the `fuse: false` reference: every element runs
    /// through the recursive [`StageChain::process`] instead.
    breadth_first: bool,
    cur: Vec<Value>,
    nxt: Vec<Value>,
    /// How the chain runs whole columns ([`classify`]); `None` keeps
    /// every batch on the per-element path.
    shape: Option<Terminal>,
    /// The chain bound to each input column type, computed on the first
    /// batch of that type (`None` inside: that type declines). Boxed so
    /// the per-element path's executor stays small.
    plans: Box<[OnceCell<Option<Plan>>; COL_TYPES]>,
    /// Whether any stage charges modeled compute cost. Costly chains
    /// only admit batches whose elements share one marshaled size, so
    /// the runtime can charge the whole batch in bulk (same total, same
    /// jitter draws as charging element by element).
    costly: bool,
}

/// How a columnar walk ends. A chain's shape is `Option<Terminal>`:
/// `None` is scalar (per-element only), and the two variants are the
/// only columnar shapes. They never overlap — `Fold` needs an absorber,
/// `Emit` forbids one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Terminal {
    /// Every stage up to an absorber (`Agg`, `Bandwidth`, `Quantile`)
    /// has a whole-column kernel: the batch folds into the absorber's
    /// state and nothing is emitted before end of stream.
    Fold,
    /// No absorber, only pass-through (`streamof`, `take`) and
    /// rewriting (`arith`, `cmp`, `filter`) stages, at least one
    /// rewrite: the walk returns the surviving column, which the runtime
    /// forwards downstream as shared column rows.
    Emit,
}

/// What one stage contributes to its chain's columnar shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StageKind {
    /// No whole-column kernel (`window`, `radixcombine`).
    Opaque,
    /// `streamof` / `take`: rows pass through (`take` keeps a prefix).
    Pass,
    /// `map`: a synthetic-array kernel that may feed an absorber but
    /// does not relay.
    Map,
    /// `arith` / `cmp` / `filter`: rewrites or narrows the column.
    Rewrite,
    /// An aggregate, `bandwidth` or `quantile`.
    Absorber,
}

fn stage_kind(stage: &Stage) -> StageKind {
    match stage {
        Stage::StreamOf | Stage::Take { .. } => StageKind::Pass,
        Stage::Map(_) => StageKind::Map,
        Stage::Arith { .. } | Stage::Cmp { .. } | Stage::Filter { .. } => StageKind::Rewrite,
        Stage::Agg(_) | Stage::Bandwidth | Stage::Quantile { .. } => StageKind::Absorber,
        Stage::RadixCombine { .. } | Stage::Window(_) => StageKind::Opaque,
    }
}

/// The stage classifier: a chain's columnar shape from its stage kinds
/// alone. [`FusedChain::new`] and [`admission_verdicts`] both read it,
/// so `explain` cannot drift from what admission does.
fn classify(stages: &[Stage]) -> Option<Terminal> {
    let kinds = || stages.iter().map(stage_kind);
    if kinds().all(|k| k != StageKind::Opaque) && kinds().any(|k| k == StageKind::Absorber) {
        Some(Terminal::Fold)
    } else if kinds().all(|k| matches!(k, StageKind::Pass | StageKind::Rewrite))
        && kinds().any(|k| k == StageKind::Rewrite)
    {
        Some(Terminal::Emit)
    } else {
        None
    }
}

/// Column type flowing between stages during the admission type flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ColType {
    Int,
    Float,
    Bool,
    Str,
    Synthetic,
    Metric,
    /// A non-metric multi-column batch: tuples flowing as parallel
    /// typed columns. Pass-through and counting stages admit it;
    /// elementwise transforms and numeric folds decline.
    Record,
    Other,
}

/// Number of [`ColType`] variants: the size of a chain's plan table.
const COL_TYPES: usize = 8;

/// The type a batch presents to the first stage: the three-column
/// metric shape, a multi-column record, a typed single column, or the
/// opaque fallback (which only `count` absorbs). Columns with invalid
/// rows are opaque — scalar semantics have no notion of a masked row
/// entering a chain.
fn batch_col_type(cols: &ColumnarBatch) -> ColType {
    let all_valid = || cols.columns().iter().all(|(_, c)| c.all_valid());
    if cols.width() == 3
        && METRIC_COLUMNS
            .iter()
            .zip(cols.columns())
            .all(|(want, (name, _))| name == want)
    {
        return if all_valid() {
            ColType::Metric
        } else {
            ColType::Other
        };
    }
    if cols.width() > 1 {
        return if all_valid() {
            ColType::Record
        } else {
            ColType::Other
        };
    }
    match cols.single() {
        Some(c) if !c.all_valid() => ColType::Other,
        Some(c) if c.as_i64().is_some() => ColType::Int,
        Some(c) if c.as_f64().is_some() => ColType::Float,
        Some(c) if c.as_bool().is_some() => ColType::Bool,
        Some(c) if c.as_synthetic().is_some() => ColType::Synthetic,
        Some(c) if c.as_utf8().is_some() => ColType::Str,
        _ => ColType::Other,
    }
}

/// One stage of a columnar plan, bound to the column type flowing into
/// it.
#[derive(Debug, Clone, PartialEq)]
enum ColOp {
    /// `streamof`, `take`, `map` or the absorber: the stage's own state
    /// says what to do.
    State,
    /// `arith` / `cmp`: the kernel rewrites the column.
    Rewrite(Kernel),
    /// `filter`: the kernel's mask narrows the selection.
    Filter(Kernel),
}

/// A chain bound to one input column type: one op per stage, up to and
/// including the absorber of a `Fold` chain.
type Plan = Arc<[ColOp]>;

/// An `arith` / `cmp` / `filter` constant resolved to the kernel its
/// column type selects, mirroring the scalar stages' type arms: integer
/// against integer stays exact, strings compare lexicographically, and
/// every other admitted numeric pair widens to IEEE `f64`.
#[derive(Debug, Clone, PartialEq)]
enum Kernel {
    ArithInt(ArithOp, i64),
    ArithReal(ArithOp, f64),
    CmpInt(CmpOp, i64),
    CmpReal(CmpOp, f64),
    CmpStr(CmpOp, String),
}

impl Kernel {
    fn apply(&self, c: &Column) -> Option<Column> {
        match self {
            Kernel::ArithInt(op, k) => columnar::arith_i64(c, *op, *k),
            Kernel::ArithReal(op, k) => columnar::arith_f64(c, *op, *k),
            Kernel::CmpInt(op, k) => columnar::cmp_mask_i64(c, *op, *k),
            Kernel::CmpReal(op, k) => columnar::cmp_mask_f64(c, *op, *k),
            Kernel::CmpStr(op, s) => columnar::cmp_mask_utf8(c, *op, s),
        }
    }
}

/// Binds a chain to one input column type — the admission type flow,
/// run once per type. Each stage needs a kernel for the type flowing
/// into it: `arith` a numeric column (an integer column with a real
/// constant widens to float, as the scalar stage does), `cmp`/`filter`
/// a numeric column with a numeric constant or a string column with a
/// string constant (`cmp` then yields booleans), `map` a synthetic
/// column, aggregates other than `count` and `quantile` a numeric
/// column, `bandwidth` the metric shape; `count` absorbs any type. The
/// plan stops at the first absorber: later stages see only the
/// end-of-stream flush. `None` sends batches of this type down the
/// per-element path, which also reproduces type-error semantics.
fn bind(stages: &[StageState], input: ColType) -> Option<Plan> {
    let numeric = |ty| matches!(ty, ColType::Int | ColType::Float);
    let mut ty = input;
    let mut ops = Vec::with_capacity(stages.len());
    for state in stages {
        let op = match state {
            StageState::StreamOf | StageState::Take { .. } => ColOp::State,
            StageState::Map(_) if ty == ColType::Synthetic => ColOp::State,
            StageState::Arith { op, rhs } => ColOp::Rewrite(match (ty, rhs) {
                (ColType::Int, Value::Integer(k)) => Kernel::ArithInt(*op, *k),
                (ColType::Int | ColType::Float, Value::Integer(_) | Value::Real(_)) => {
                    ty = ColType::Float;
                    Kernel::ArithReal(*op, rhs.as_real()?)
                }
                _ => return None,
            }),
            StageState::Cmp { op, rhs } | StageState::Filter { op, rhs } => {
                let kernel = match (ty, rhs) {
                    (ColType::Int, Value::Integer(k)) => Kernel::CmpInt(*op, *k),
                    (ColType::Int | ColType::Float, Value::Integer(_) | Value::Real(_)) => {
                        Kernel::CmpReal(*op, rhs.as_real()?)
                    }
                    (ColType::Str, Value::Str(s)) => Kernel::CmpStr(*op, s.clone()),
                    _ => return None,
                };
                if matches!(state, StageState::Filter { .. }) {
                    ColOp::Filter(kernel)
                } else {
                    ty = ColType::Bool;
                    ColOp::Rewrite(kernel)
                }
            }
            StageState::Agg {
                kind: AggKind::Count,
                ..
            } => return absorb(ops),
            StageState::Agg { .. } | StageState::Quantile { .. } if numeric(ty) => {
                return absorb(ops)
            }
            StageState::Bandwidth { .. } if ty == ColType::Metric => return absorb(ops),
            _ => return None,
        };
        ops.push(op);
    }
    Some(ops.into())
}

/// Closes a plan at its absorber.
fn absorb(mut ops: Vec<ColOp>) -> Option<Plan> {
    ops.push(ColOp::State);
    Some(ops.into())
}

/// A batch cleared for the columnar walk by [`FusedChain::admit`]: the
/// columns, the chain's plan for their type, and the facts the runtime
/// needs to charge the modeled compute cost *before* the walk runs,
/// mirroring the per-element path's charge-then-process order.
#[derive(Debug)]
pub struct Admitted {
    cols: ColumnarBatch,
    plan: Plan,
    /// Number of elements in the batch.
    pub rows: usize,
    /// Marshaled size shared by every element, or 0 when the chain
    /// charges no compute cost (then no size is needed — the cost walk
    /// is empty either way).
    pub elem_bytes: u64,
    /// How the walk ends: fold into the absorber, or emit survivors.
    pub terminal: Terminal,
}

/// What [`FusedChain::walk`] leaves behind.
#[derive(Debug)]
pub enum Walked {
    /// The batch folded into the absorber's state — exactly what feeding
    /// the elements one at a time would have left (see the fold
    /// contracts in [`crate::columnar`]).
    Folded,
    /// The surviving rows as one column named `"v"`, plus the
    /// output-row → input-row map: `None` when the output is a prefix
    /// of the input (only dense stages and `take` ran), `Some(sel)` when
    /// output row `j` came from input row `sel.rows()[j]` (a filter
    /// ran). The runtime needs the map to emit each survivor at the
    /// finish time of the input element that produced it, exactly as
    /// the per-element path does.
    Emitted(ColumnarBatch, Option<SelectionVector>),
}

impl FusedChain {
    /// Instantiates runtime state for a stage chain.
    pub fn new(stages: &[Stage]) -> FusedChain {
        Self::for_run(stages, true)
    }

    /// The executor a run uses: breadth-first with the chain's columnar
    /// shape when `fuse` is on, else the recursive interpreter with no
    /// columnar shape (`RunOptions::fuse`).
    pub(crate) fn for_run(stages: &[Stage], fuse: bool) -> FusedChain {
        FusedChain {
            chain: StageChain::from_stages(stages),
            breadth_first: fuse,
            cur: Vec::new(),
            nxt: Vec::new(),
            shape: classify(stages).filter(|_| fuse),
            plans: Box::new(std::array::from_fn(|_| OnceCell::new())),
            costly: stages.iter().any(|s| cost_op(s).is_some()),
        }
    }

    /// Feeds one element through the chain, appending whatever falls
    /// out the end to `out`. Breadth-first, the same outputs as
    /// [`StageChain::process`] but allocation-free after warm-up:
    /// elements move between the two scratch buffers, one stage at a
    /// time.
    ///
    /// # Errors
    ///
    /// Type errors when an elementwise function meets an incompatible
    /// value.
    pub fn process_into(
        &mut self,
        value: Value,
        from: Option<SpHandle>,
        out: &mut Vec<Value>,
    ) -> Result<(), EngineError> {
        if !self.breadth_first {
            out.extend(self.chain.process(value, from)?);
            return Ok(());
        }
        let StageChain { stages, tally } = &mut self.chain;
        self.cur.clear();
        self.cur.push(value);
        for (i, stage) in stages.iter_mut().enumerate() {
            if self.cur.is_empty() {
                return Ok(());
            }
            self.nxt.clear();
            let n_in = self.cur.len() as u64;
            for v in self.cur.drain(..) {
                stage.step(v, from, &mut self.nxt)?;
            }
            if let Some(t) = tally.get_mut(i) {
                t.calls += n_in;
                t.elems_in += n_in;
                t.elems_out += self.nxt.len() as u64;
            }
            std::mem::swap(&mut self.cur, &mut self.nxt);
        }
        out.append(&mut self.cur);
        Ok(())
    }

    /// Whether batches can run as whole columns at all ([`classify`]):
    /// the runtime skips transposing runs no batch could use.
    pub(crate) fn is_columnar(&self) -> bool {
        self.shape.is_some()
    }

    /// Decides, without mutating any stage state, whether a batch runs
    /// as whole columns: the chain has a columnar shape, the batch is
    /// non-empty, the chain's plan for the batch's column type exists
    /// (see `bind`), and — when any stage charges modeled compute
    /// cost — every element marshals to one size, so the runtime can
    /// charge `rows × cost(elem_bytes)` in one bulk call, the same total
    /// the per-element walk accrues. `None` means the caller falls back
    /// to the per-element path.
    pub fn admit(&self, cols: &ColumnarBatch) -> Option<Admitted> {
        let terminal = self.shape?;
        if cols.is_empty() {
            return None;
        }
        let ty = batch_col_type(cols);
        let plan = self.plans[ty as usize]
            .get_or_init(|| bind(&self.chain.stages, ty))
            .clone()?;
        let elem_bytes = if self.costly {
            uniform_elem_bytes(cols, ty)?
        } else {
            0
        };
        Some(Admitted {
            rows: cols.rows(),
            cols: cols.clone(),
            plan,
            elem_bytes,
            terminal,
        })
    }

    /// Runs an admitted batch through the chain as whole columns. The
    /// caller must have charged the compute cost already.
    ///
    /// Rewrites replace the column; `filter` narrows a selection vector
    /// over the *original* row space instead of gathering survivors, so
    /// a chain of filters is mask intersection, the fold visits
    /// survivors by index, and an emitted column is gathered once at the
    /// end. Dense stages after a filter keep operating on all rows —
    /// dead rows are computed and never read, which is cheaper than
    /// gathering and cannot fail on an admitted type. A multi-column
    /// batch (the metric triple or a record) meets only pass-through
    /// stages and `count`/`bandwidth`: its first column carries the row
    /// count, and `bandwidth` reads the metric columns over the same
    /// prefix.
    ///
    /// # Errors
    ///
    /// The same error the per-element path would raise on the first
    /// failing element (`bandwidth` over malformed samples or
    /// `quantile` over negative values on an admitted shape).
    pub fn walk(&mut self, admit: Admitted) -> Result<Walked, EngineError> {
        let Admitted {
            cols,
            plan,
            terminal,
            ..
        } = admit;
        let lead = cols.columns().first().map(|(name, _)| name.as_str());
        let mut cur = bound(lead.and_then(|name| cols.column(name)));
        let mut sel: Option<SelectionVector> = None;
        let StageChain { stages, tally, .. } = &mut self.chain;
        for (si, (op, state)) in plan.iter().zip(stages.iter_mut()).enumerate() {
            // Semantic element counts for explain-analyze: what the
            // per-element path would have fed this stage.
            let live_in = live(&cur, sel.as_ref());
            let mut folded = false;
            match (op, state) {
                (ColOp::Rewrite(k), _) => cur = bound(k.apply(&cur)),
                (ColOp::Filter(k), _) => {
                    let mask = bound(k.apply(&cur));
                    sel = Some(bound(match &sel {
                        Some(s) => columnar::intersect_selection(&mask, s),
                        None => columnar::filter_to_selection(&mask),
                    }));
                }
                (ColOp::State, StageState::StreamOf) => {}
                (ColOp::State, StageState::Map(f)) => {
                    cur = bound(columnar::map_synthetic(&cur, *f));
                }
                (ColOp::State, StageState::Take { remaining }) => {
                    let k = live_in.min(*remaining);
                    *remaining -= k;
                    match &mut sel {
                        Some(s) => s.truncate(k as usize),
                        None => cur = cur.slice(0, k as usize),
                    }
                }
                (ColOp::State, absorber) => {
                    fold(absorber, &cur, sel.as_ref(), &cols)?;
                    folded = true;
                }
            }
            if let Some(t) = tally.get_mut(si) {
                t.calls += 1;
                t.elems_in += live_in;
                if !folded {
                    t.elems_out += live(&cur, sel.as_ref());
                }
            }
        }
        Ok(match terminal {
            Terminal::Fold => Walked::Folded,
            Terminal::Emit => {
                let out = match &sel {
                    Some(s) => columnar::take(&cur, s),
                    None => cur,
                };
                Walked::Emitted(ColumnarBatch::new(vec![("v".to_string(), out)]), sel)
            }
        })
    }

    /// Signals end of stream; aggregates flush. Delegates to the
    /// interpreted chain (it runs once per RP, off the hot path, and
    /// sharing the code makes flush semantics identical by
    /// construction).
    ///
    /// # Errors
    ///
    /// Propagates type errors from downstream stages processing flushed
    /// values.
    pub fn finish(&mut self) -> Result<Vec<Value>, EngineError> {
        self.chain.finish()
    }

    /// Walks the chain's mutable state through a coalescing probe —
    /// the same walk as the interpreted chain, over the same states.
    pub(crate) fn probe(
        &mut self,
        p: &mut StateProbe<'_>,
        probe_value: &mut dyn FnMut(&Value, &mut StateProbe<'_>),
    ) {
        self.chain.probe(p, probe_value);
    }

    /// Allocates explain-analyze tally slots (one per stage). Before
    /// this call the tally slice is empty and every update is a no-op
    /// bounds check.
    pub(crate) fn enable_profiling(&mut self) {
        self.chain.enable_profiling();
    }

    /// The per-stage tallies (empty unless profiling is enabled).
    pub(crate) fn tally(&self) -> &[crate::profile::StageTally] {
        &self.chain.tally
    }
}

/// Rows still live: the selection's survivors, or the whole column.
fn live(cur: &Column, sel: Option<&SelectionVector>) -> u64 {
    sel.map_or(cur.len(), SelectionVector::len) as u64
}

/// The walk's one invariant, checked in one place: admission bound
/// every op to the column type it meets, so a miss is an engine bug.
fn bound<T>(x: Option<T>) -> T {
    x.expect("columnar plans are bound to the column type they meet")
}

/// A numeric column's flat values.
enum Numeric<'a> {
    Int(&'a [i64]),
    Real(&'a [f64]),
}

fn numeric(c: &Column) -> Numeric<'_> {
    match (c.as_i64(), c.as_f64()) {
        (Some(xs), _) => Numeric::Int(xs),
        (_, Some(xs)) => Numeric::Real(xs),
        _ => bound(None),
    }
}

/// Folds the live rows into an absorber's state, replaying the
/// interpreter's per-element updates (see [`crate::columnar`]).
fn fold(
    state: &mut StageState,
    cur: &Column,
    sel: Option<&SelectionVector>,
    cols: &ColumnarBatch,
) -> Result<(), EngineError> {
    match state {
        StageState::Agg {
            kind: AggKind::Count,
            count,
            ..
        } => *count += live(cur, sel) as i64,
        StageState::Agg {
            kind: AggKind::Sum | AggKind::Avg,
            count,
            sum_int,
            sum_real,
            saw_real,
            ..
        } => match (numeric(cur), sel) {
            (Numeric::Int(xs), None) => columnar::fold_sum_i64(count, sum_int, xs),
            (Numeric::Int(xs), Some(s)) => columnar::fold_sum_i64_sel(count, sum_int, xs, s),
            (Numeric::Real(xs), None) => columnar::fold_sum_f64(count, sum_real, saw_real, xs),
            (Numeric::Real(xs), Some(s)) => {
                columnar::fold_sum_f64_sel(count, sum_real, saw_real, xs, s)
            }
        },
        StageState::Agg {
            kind, count, best, ..
        } => {
            let maximize = *kind == AggKind::Max;
            match (numeric(cur), sel) {
                (Numeric::Int(xs), None) => columnar::fold_best_i64(count, best, xs, maximize),
                (Numeric::Int(xs), Some(s)) => {
                    columnar::fold_best_i64_sel(count, best, xs, s, maximize)
                }
                (Numeric::Real(xs), None) => columnar::fold_best_f64(count, best, xs, maximize),
                (Numeric::Real(xs), Some(s)) => {
                    columnar::fold_best_f64_sel(count, best, xs, s, maximize)
                }
            }
        }
        StageState::Quantile { hist, .. } => match (numeric(cur), sel) {
            (Numeric::Int(xs), None) => columnar::fold_quantile_i64(hist, xs)?,
            (Numeric::Int(xs), Some(s)) => columnar::fold_quantile_i64_sel(hist, xs, s)?,
            (Numeric::Real(xs), None) => columnar::fold_quantile_f64(hist, xs)?,
            (Numeric::Real(xs), Some(s)) => columnar::fold_quantile_f64_sel(hist, xs, s)?,
        },
        StageState::Bandwidth { bytes, last_nanos } => {
            // Only pass-through stages precede a metric fold, so the
            // live rows are a prefix of the batch.
            let view = cols.slice(0, cur.len());
            let [channel, time_ns, sample_bytes] =
                METRIC_COLUMNS.map(|name| bound(view.column(name)));
            columnar::fold_bandwidth(
                bytes,
                last_nanos,
                bound(channel.as_i64()),
                bound(time_ns.as_i64()),
                bound(sample_bytes.as_i64()),
            )?;
        }
        _ => bound(None),
    }
    Ok(())
}

/// The marshaled size shared by every element of the batch, or `None`
/// when sizes differ (then bulk cost charging would not equal the
/// per-element walk and the batch is declined). Fixed-width kinds
/// answer from the type; synthetic arrays and strings check the run.
fn uniform_elem_bytes(cols: &ColumnarBatch, ty: ColType) -> Option<u64> {
    match ty {
        // Tag byte + 8-byte payload.
        ColType::Int | ColType::Float => Some(9),
        // Tag byte + 1-byte payload.
        ColType::Bool => Some(2),
        // A metric sample marshals as a 3-integer bag: tag + length
        // prefix + three 9-byte integers.
        ColType::Metric => Some(32),
        // A record marshals as a bag of its cells: tag + length prefix
        // + each cell. Only all-fixed-stride records qualify.
        ColType::Record => {
            let mut total = 5u64;
            for (_, c) in cols.columns() {
                total += match (c.as_i64(), c.as_f64(), c.as_bool()) {
                    (Some(_), _, _) | (_, Some(_), _) => 9,
                    (_, _, Some(_)) => 2,
                    _ => return None,
                };
            }
            Some(total)
        }
        ColType::Synthetic => {
            let c = cols.single()?;
            let xs = c.as_synthetic()?;
            let &b = xs.first()?;
            // Tag + length prefix + the array body.
            xs.iter().all(|&x| x == b).then_some(9 + b)
        }
        ColType::Str => {
            let c = cols.single()?;
            let (offsets, _) = c.as_utf8()?;
            let l = offsets.get(1)? - offsets.first()?;
            // Tag + length prefix + the bytes.
            offsets
                .windows(2)
                .all(|w| w[1] - w[0] == l)
                .then_some(5 + u64::from(l))
        }
        ColType::Other => None,
    }
}

/// The static columnar-admission verdict for each stage of a chain —
/// what `explain` prints so rejected shapes are diagnosable. Derived
/// from the same `classify` that fixes a [`FusedChain`]'s shape:
/// `"columnar"` marks stages a [`Terminal::Fold`] walk drives,
/// `"columnar (relay)"` marks stages of a [`Terminal::Emit`] chain, and
/// `"scalar: <reason>"` explains why a stage forces the per-element
/// path. Verdicts are shape-level: per-batch typing (a string column
/// into `sum`, mixed runs) can still demote an admitted shape at
/// delivery time.
pub fn admission_verdicts(stages: &[Stage]) -> Vec<String> {
    let shape = classify(stages);
    let kernel = |s: &Stage| stage_kind(s) != StageKind::Opaque;
    let all_kernels = stages.iter().all(kernel);
    let mut absorbed = false;
    stages
        .iter()
        .map(|s| {
            match shape {
                Some(Terminal::Fold) if absorbed => {
                    "scalar: after the absorber (sees only the flush)"
                }
                Some(Terminal::Fold) => {
                    absorbed = stage_kind(s) == StageKind::Absorber;
                    "columnar"
                }
                Some(Terminal::Emit) => "columnar (relay)",
                None if !kernel(s) => "scalar: no whole-column kernel",
                None if all_kernels => "scalar: chain neither absorbs nor transforms",
                None => "scalar: chain blocked by a non-vectorizable stage",
            }
            .to_string()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{InputKind, Pipeline};

    fn pipeline(stages: Vec<Stage>) -> Pipeline {
        Pipeline {
            input: InputKind::Const { values: vec![] },
            stages,
        }
    }

    fn run_both(
        stages: Vec<Stage>,
        feed: &[(Value, Option<SpHandle>)],
    ) -> (Vec<Value>, Vec<Value>) {
        let p = pipeline(stages);
        let mut fused = FusedChain::new(&p.stages);
        let mut interp = StageChain::new(&p);
        let mut fused_out = Vec::new();
        for (v, from) in feed {
            fused
                .process_into(v.clone(), *from, &mut fused_out)
                .unwrap();
        }
        fused_out.extend(fused.finish().unwrap());
        let mut interp_out = Vec::new();
        for (v, from) in feed {
            interp_out.extend(interp.process(v.clone(), *from).unwrap());
        }
        interp_out.extend(interp.finish().unwrap());
        (fused_out, interp_out)
    }

    #[test]
    fn empty_program_is_identity() {
        let (f, i) = run_both(vec![], &[(Value::Integer(5), None)]);
        assert_eq!(f, i);
        assert_eq!(f, vec![Value::Integer(5)]);
    }

    #[test]
    fn fused_matches_interpreted_on_map_agg_take() {
        let feed: Vec<(Value, Option<SpHandle>)> = (0..10)
            .map(|i| (Value::synthetic_array(256 + i), None))
            .collect();
        let (f, i) = run_both(
            vec![
                Stage::Map(MapFunc::Odd),
                Stage::Take { limit: 6 },
                Stage::Agg(AggKind::Count),
            ],
            &feed,
        );
        assert_eq!(f, i);
        assert_eq!(f, vec![Value::Integer(6)]);
    }

    #[test]
    fn fused_type_errors_match_interpreted() {
        let p = pipeline(vec![Stage::Agg(AggKind::Sum)]);
        let mut fused = FusedChain::new(&p.stages);
        let mut interp = StageChain::new(&p);
        let mut out = Vec::new();
        let fe = fused
            .process_into(Value::from("x"), None, &mut out)
            .unwrap_err();
        let ie = interp.process(Value::from("x"), None).unwrap_err();
        assert_eq!(fe.to_string(), ie.to_string());
    }

    #[test]
    fn cost_model_matches_stage_walk() {
        let p = pipeline(vec![
            Stage::Map(MapFunc::Odd),
            Stage::Map(MapFunc::Fft),
            Stage::RadixCombine {
                first: SpHandle(1),
                second: SpHandle(2),
            },
            Stage::Agg(AggKind::Count),
        ]);
        let mut model = CostModel::new(&p.stages);
        for elem_bytes in [0u64, 8, 1000, 1001, 1_000_000] {
            let mut bytes = elem_bytes;
            let mut want = 0u64;
            for s in &p.stages {
                match s {
                    Stage::Map(f) => {
                        want += funcs::map_cost_bytes(*f, bytes);
                        if matches!(f, MapFunc::Odd | MapFunc::Even) {
                            bytes /= 2;
                        }
                    }
                    Stage::RadixCombine { .. } => want += bytes,
                    _ => {}
                }
            }
            assert_eq!(model.cost(elem_bytes), want);
            // The memo must not change the answer.
            assert_eq!(model.cost(elem_bytes), want);
        }
    }

    #[test]
    fn fused_matches_interpreted_on_bandwidth() {
        let feed: Vec<(Value, Option<SpHandle>)> = (1..=5u64)
            .map(|i| (crate::ops::metric_sample(0, i * 1_000_000, 1000), None))
            .collect();
        let (f, i) = run_both(vec![Stage::Bandwidth], &feed);
        assert_eq!(f, i);
        assert_eq!(f, vec![Value::Real(5000.0 / 0.005)]);
    }

    #[test]
    fn cost_model_is_free_without_costly_stages() {
        let p = pipeline(vec![Stage::Agg(AggKind::Count), Stage::StreamOf]);
        let mut model = CostModel::new(&p.stages);
        assert_eq!(model.cost(123_456), 0);
    }
}
