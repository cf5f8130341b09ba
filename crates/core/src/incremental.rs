//! Streaming releases: incremental exact-coefficient maintenance with
//! epoch-budgeted re-noising.
//!
//! A publish-once release freezes its table; real deployments ingest
//! continuously. The wavelet structure makes re-publishing unnecessary:
//! a single-cell increment changes only the leaf-to-root coefficient path
//! of each dimension (the dual of
//! [`query_weights`](crate::transform::Transform1d::query_weights), exposed
//! as [`update_weights`](crate::transform::Transform1d::update_weights)),
//! so the *exact* (pre-noise) coefficients can absorb row arrivals as
//! sparse deltas — `∏ᵢ O(log mᵢ)` touched coefficients per increment
//! instead of an O(m) forward transform.
//!
//! **Bit-identity.** The acceptance contract for streaming is strict: after
//! any number of increments, publishing an epoch must be bit-identical to
//! [`publish_coefficients`](crate::mechanism::publish_coefficients) run
//! from scratch on the updated table with the same seed. Naively *adding*
//! `δ·update_weights` to the stored coefficients breaks this — float
//! addition is not associative, so `(a + δ/f)` generally differs in the
//! last ulp from recomputing the coefficient from updated sums. Instead,
//! [`IncrementalRelease`] keeps each axis's forward-kernel *state* (the
//! Haar averaging pyramid, the nominal leaf-sum array, the identity lane —
//! see [`Transform1d::state_len`]) and recomputes every touched value with
//! expressions byte-for-byte identical to the forward kernels' own
//! (`0.5 * (a + b)` / `0.5 * (a - b)`, the child-order `.sum()`,
//! `ls − ls_parent / fanout`). The sparse-update *indices* are exactly
//! `update_weights`' support; only the value arithmetic routes through the
//! state.
//!
//! **One forward kernel.** The states are not computed by a second copy of
//! the forward: every [`Transform1d::forward`] leaves its lane's state in
//! scratch, and [`new`](IncrementalRelease::new) and
//! [`decay`](IncrementalRelease::decay) run the ordinary forward pipeline
//! on the tiled [`LaneExecutor`] with each stage keeping that scratch —
//! writing the states and the exact coefficients straight into the
//! release's own buffers. Only the sparse dirty walk below restates the
//! per-node expressions.
//!
//! **Coalesced ingest.** A heavy-traffic stream delivers increments in
//! batches whose coefficient paths overlap heavily — B arrivals into one
//! hot region dirty far fewer than `B·∏ log mᵢ` distinct coefficients.
//! [`apply_increments`](IncrementalRelease::apply_increments) absorbs a
//! whole batch at a cost proportional to the *distinct dirty
//! coefficients*: it validates the batch up front, coalesces duplicate
//! cells, and propagates axis by axis over a **dirty set** — pending
//! changes are grouped by lane, each dirty lane's kernel state is walked
//! once, and every dirty coefficient is recomputed exactly once with the
//! forward kernels' per-node expressions. Because each touched value is a
//! pure function of the final child states, the result is
//! **bit-identical** to the forward transform of the updated table
//! (proptested in `tests/streaming_release.rs`); the only order-sensitive
//! operations — the `+=` leaf additions of duplicate cells — are replayed
//! in arrival order. A single increment
//! ([`apply_increment`](IncrementalRelease::apply_increment)) is a batch
//! of one. The propagation works on flat linear indices in a reusable
//! internal workspace (no per-touch coordinate-vector clones, no
//! allocation once the buffers reach the batch's working-set size), and
//! a lane whose distinct dirty-leaf count crosses the
//! [`DEFAULT_BULK_LANE_CUTOVER_PCT`] density cutover is recomputed with
//! one contiguous call of the lane's forward kernel instead of per-node
//! pointer chasing.
//!
//! **Epoch budgets.** Re-noising the same statistics k times is k releases
//! of one mechanism: sequential composition sums the epsilons. A
//! [`BudgetLedger`] tracks the lifetime budget;
//! [`advance_epoch`](IncrementalRelease::advance_epoch) debits the epoch's
//! ε *before* any noise is drawn and refuses with
//! [`CoreError::BudgetExhausted`](crate::CoreError) —
//! never a silent over-spend. Noise injection reuses the publishers'
//! chunked weighted-Laplace seam, so an epoch's output coefficients are
//! bit-identical to a from-scratch publish at the epoch's seed.
//!
//! The sliding-window and exponentially-decayed-sum streaming variants
//! are thin layers over the bulk primitive — see [`crate::streaming`].

use crate::mechanism::privelet::add_weighted_noise;
use crate::mechanism::CoefficientOutput;
use crate::privacy::{BudgetLedger, PrivacyMeta};
use crate::transform::{DimTransform, HnTransform, Transform1d};
use crate::{CoreError, Result};
use privelet_data::schema::Schema;
use privelet_data::FrequencyMatrix;
use privelet_matrix::{LaneExecutor, NdMatrix, Shape};
use std::collections::BTreeSet;

/// Default whole-lane cutover, as a dirty-leaf *percentage* of the lane
/// length: a dirty lane switches from per-node dirty walks to one
/// contiguous kernel recompute when at least half its leaves are dirty —
/// the point where the dirty closure approaches the whole coefficient
/// tree and a linear pass beats pointer chasing.
pub const DEFAULT_BULK_LANE_CUTOVER_PCT: usize = 50;

/// The state slot holding domain position `pos`'s leaf (see
/// [`Transform1d::state_len`]).
fn leaf_slot(t: &DimTransform, pos: usize) -> usize {
    match t {
        DimTransform::Haar(h) => h.output_len() + pos,
        DimTransform::Nominal(nt) => nt.hierarchy().leaf_node(pos),
        DimTransform::Identity(_) => pos,
    }
}

/// Saturating `∏ᵢ max_update_support(i)`: a 5-dim schema of wide nominal
/// fanouts can push the plain `product()` fold past `usize::MAX`, and a
/// wrapped bound is worse than a useless one — it *under*-reports.
fn saturating_touch_bound(transforms: &[DimTransform]) -> usize {
    transforms
        .iter()
        .map(Transform1d::max_update_support)
        .fold(1usize, usize::saturating_mul)
}

/// Diagnostics of one bulk batch: how much duplicate-cell coalescing and
/// dirty-path sharing actually saved, observable by callers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IngestReport {
    /// Increments in the batch as submitted (duplicates included).
    pub increments: usize,
    /// Duplicate-cell arrivals merged onto an already-dirty cell —
    /// `increments` minus the distinct cells the batch touched.
    pub coalesced_cells: usize,
    /// Distinct coefficients written — the dirty-set size, which
    /// absorbing the increments one at a time would have written at
    /// least this many times.
    pub coefficients_written: usize,
    /// Tightened per-batch bound: `distinct cells × per-increment touch
    /// bound`, saturating, capped at the coefficient-tensor size.
    /// `coefficients_written ≤ touch_bound` always holds.
    pub touch_bound: usize,
}

/// One pending change, lane-decomposed: `lane` keys the grouping,
/// `pos` is the coordinate along the axis being processed, `seq`
/// preserves arrival order so duplicate-cell `+=` replays happen in
/// submission order, bit for bit.
#[derive(Debug, Clone, Copy)]
struct Entry {
    lane: usize,
    pos: usize,
    seq: usize,
    value: f64,
}

/// Per-lane scratch for the dirty walk, reused across lanes and batches.
#[derive(Debug, Clone, Default)]
struct LaneScratch {
    /// Dirty-node marks, indexed by state slot (heap node for Haar,
    /// hierarchy node id for nominal); cleared via `marked` after each
    /// lane so clearing costs O(dirty), not O(lane).
    marks: Vec<bool>,
    /// The marked nodes of the lane in hand.
    marked: Vec<usize>,
    lane: LaneBufs,
}

/// Contiguous lane buffers for whole-lane kernel recomputes.
#[derive(Debug, Clone, Default)]
struct LaneBufs {
    src: Vec<f64>,
    /// The kernel's scratch, state first.
    scratch: Vec<f64>,
    out: Vec<f64>,
}

/// Dirty-set workspace reused across batches — the bulk-ingest analogue
/// of `LaneExecutor`'s ping-pong buffers. Changes travel as flat linear
/// indices in the mixed space (coefficient coordinates on processed
/// axes, data coordinates on the rest); no per-touch coordinate vectors
/// are cloned, and nothing allocates once the buffers have grown to the
/// batch's working-set size.
#[derive(Debug, Clone, Default)]
struct BatchWorkspace {
    /// Changes entering the current axis: `(linear index, value)` where
    /// the value is a delta on axis 0 and an absolute recompute after.
    pending: Vec<(usize, f64)>,
    /// Lane-decomposed, `(lane, pos, seq)`-sorted view of `pending`.
    entries: Vec<Entry>,
    /// Changes emitted for the next axis.
    next: Vec<(usize, f64)>,
    scratch: LaneScratch,
}

/// Geometry + mode of one dirty lane.
#[derive(Debug, Clone, Copy)]
struct LaneCtx {
    /// Element stride along the axis (the inner block size).
    stride: usize,
    /// Flat offset of the lane's slot 0 in the axis state.
    state_base: usize,
    /// Flat offset of the lane's position 0 in the axis output space.
    out_base: usize,
    /// Entry axis: changes are `+=` deltas, not absolute assignments.
    is_delta: bool,
    /// Whole-lane recompute density cutover, in percent of lane length.
    cutover_pct: usize,
}

/// Whole-lane cutover predicate: switch to the contiguous kernel
/// recompute when the distinct dirty leaves reach `pct`% of the lane.
/// `0` always switches; anything above `100` never does. Saturating so a
/// `usize::MAX` knob can't wrap into "always".
fn whole_lane(distinct: usize, input_len: usize, pct: usize) -> bool {
    distinct.saturating_mul(100) >= pct.saturating_mul(input_len)
}

/// Recomputes one whole lane with the lane's forward kernel: gathers its
/// leaves from the state, runs [`Transform1d::forward`] contiguously, and
/// writes the kernel's state back. `lane.out` is left holding the lane's
/// coefficients.
fn forward_lane(t: &DimTransform, state: &mut [f64], ctx: LaneCtx, lane: &mut LaneBufs) {
    let sidx = |k: usize| ctx.state_base + k * ctx.stride;
    lane.src.clear();
    lane.src
        .extend((0..t.input_len()).map(|pos| state[sidx(leaf_slot(t, pos))]));
    lane.scratch.resize(t.scratch_len().max(t.state_len()), 0.0);
    lane.out.resize(t.output_len(), 0.0);
    t.forward(&lane.src, &mut lane.out, &mut lane.scratch);
    for (k, &v) in lane.scratch[..t.state_len()].iter().enumerate() {
        state[sidx(k)] = v;
    }
}

/// Processes one dirty lane of one axis: applies the lane's pending
/// changes to the kernel state (duplicate positions replayed in arrival
/// order), recomputes every dirty node **exactly once** bottom-up with
/// the kernels' own float expressions — or, past the density cutover,
/// with one contiguous call of the forward kernel ([`forward_lane`]),
/// which computes the identical bits because every node value is the
/// same pure function of the final leaf states — and emits the dirty
/// output positions into `next`. Returns the lane's distinct dirty
/// position count (on axis 0: distinct cells after coalescing).
fn process_lane(
    t: &DimTransform,
    state: &mut [f64],
    ctx: LaneCtx,
    group: &[Entry],
    scratch: &mut LaneScratch,
    next: &mut Vec<(usize, f64)>,
) -> usize {
    let sidx = |k: usize| ctx.state_base + k * ctx.stride;
    let oidx = |q: usize| ctx.out_base + q * ctx.stride;
    let LaneScratch {
        marks,
        marked,
        lane,
    } = scratch;
    marked.clear();
    let mut distinct = 0usize;
    match t {
        DimTransform::Haar(_) => {
            let m = t.output_len();
            let mut gi = 0usize;
            while gi < group.len() {
                let pos = group[gi].pos;
                distinct += 1;
                let li = sidx(m + pos);
                while gi < group.len() && group[gi].pos == pos {
                    if ctx.is_delta {
                        state[li] += group[gi].value;
                    } else {
                        state[li] = group[gi].value;
                    }
                    gi += 1;
                }
                let mut j = (m + pos) >> 1;
                while j >= 1 && !marks[j] {
                    marks[j] = true;
                    marked.push(j);
                    j >>= 1;
                }
            }
            if whole_lane(distinct, t.input_len(), ctx.cutover_pct) {
                forward_lane(t, state, ctx, lane);
                for &j in marked.iter() {
                    next.push((oidx(j), lane.out[j]));
                }
                next.push((ctx.out_base, lane.out[0]));
            } else {
                // Descending heap index = children before parents.
                marked.sort_unstable_by(|a, b| b.cmp(a));
                for &j in marked.iter() {
                    let a = state[sidx(2 * j)];
                    let b = state[sidx(2 * j + 1)];
                    state[sidx(j)] = 0.5 * (a + b);
                    next.push((oidx(j), 0.5 * (a - b)));
                }
                // Base coefficient = the root average (slot 1; for m == 1
                // slot 1 *is* the single leaf), as in the forward kernel.
                next.push((ctx.out_base, state[sidx(1)]));
            }
        }
        DimTransform::Nominal(nt) => {
            let h = nt.hierarchy();
            let mut gi = 0usize;
            while gi < group.len() {
                let pos = group[gi].pos;
                distinct += 1;
                let li = sidx(h.leaf_node(pos));
                while gi < group.len() && group[gi].pos == pos {
                    if ctx.is_delta {
                        state[li] += group[gi].value;
                    } else {
                        state[li] = group[gi].value;
                    }
                    gi += 1;
                }
                let mut node = h.leaf_node(pos);
                while let Some(p) = h.parent(node) {
                    if marks[p] {
                        break;
                    }
                    marks[p] = true;
                    marked.push(p);
                    node = p;
                }
            }
            if whole_lane(distinct, t.input_len(), ctx.cutover_pct) {
                forward_lane(t, state, ctx, lane);
                let root_pos = h.level_order_pos(h.root());
                next.push((oidx(root_pos), lane.out[root_pos]));
                for &p in marked.iter() {
                    for &c in h.children(p) {
                        let q = h.level_order_pos(c);
                        next.push((oidx(q), lane.out[q]));
                    }
                }
            } else {
                // Deeper level-order positions first = children before
                // parents (level order is breadth-first from the root).
                marked.sort_unstable_by_key(|&id| std::cmp::Reverse(h.level_order_pos(id)));
                for &p in marked.iter() {
                    state[sidx(p)] = h.children(p).iter().map(|&c| state[sidx(c)]).sum();
                }
                let root = h.root();
                next.push((oidx(h.level_order_pos(root)), state[sidx(root)]));
                // A dirty leaf-sum feeds the coefficient of every child of
                // that node, so whole sibling groups re-derive.
                for &p in marked.iter() {
                    let f = h.fanout(p) as f64;
                    let lsp = state[sidx(p)];
                    for &c in h.children(p) {
                        next.push((oidx(h.level_order_pos(c)), state[sidx(c)] - lsp / f));
                    }
                }
            }
        }
        DimTransform::Identity(_) => {
            let mut gi = 0usize;
            while gi < group.len() {
                let pos = group[gi].pos;
                distinct += 1;
                let li = sidx(pos);
                while gi < group.len() && group[gi].pos == pos {
                    if ctx.is_delta {
                        state[li] += group[gi].value;
                    } else {
                        state[li] = group[gi].value;
                    }
                    gi += 1;
                }
                next.push((oidx(pos), state[li]));
            }
        }
    }
    for &id in marked.iter() {
        marks[id] = false;
    }
    distinct
}

/// A streaming release: the exact (pre-noise) HN coefficients of a live
/// table, maintained under single-cell / coalesced-batch increments, re-
/// noised only at explicit epoch boundaries under a lifetime privacy
/// budget.
///
/// See the [module docs](self) for the bit-identity design. Each
/// [`advance_epoch`](Self::advance_epoch) hands its output to the caller;
/// serving tiers roll to it via `ReleaseCore::advance_epoch` in
/// `privelet-query`.
#[derive(Debug, Clone)]
pub struct IncrementalRelease {
    schema: Schema,
    transform: HnTransform,
    /// Exact coefficients, bit-identical at all times to
    /// `transform.forward(current table)`.
    exact: NdMatrix,
    /// Per-axis forward-kernel state for every lane of that axis. Axis
    /// `i`'s buffer has dimensions `(out₀, …, outᵢ₋₁, sᵢ, inᵢ₊₁, …, in_d)`
    /// — axes before `i` already in the coefficient domain, axes after it
    /// still in the data domain — where `sᵢ` is the axis transform's
    /// [`state_len`](Transform1d::state_len).
    states: Vec<Vec<f64>>,
    ledger: BudgetLedger,
    workspace: BatchWorkspace,
    lane_cutover_pct: usize,
}

impl IncrementalRelease {
    /// Opens a streaming release over `fm`'s current contents with the
    /// Privelet / Privelet⁺ transform for `sa` and a lifetime privacy
    /// budget of `total_epsilon`. No noise is drawn and nothing is
    /// published until the first [`advance_epoch`](Self::advance_epoch).
    pub fn new(fm: &FrequencyMatrix, sa: &BTreeSet<usize>, total_epsilon: f64) -> Result<Self> {
        let transform = HnTransform::for_schema(fm.schema(), sa)?;
        let ledger = BudgetLedger::new(total_epsilon)?;
        let states = vec![Vec::new(); transform.ndim()];
        let exact = NdMatrix::zeros(&transform.output_dims())?;
        let mut release = IncrementalRelease {
            schema: fm.schema().clone(),
            transform,
            exact,
            states,
            ledger,
            workspace: BatchWorkspace::default(),
            lane_cutover_pct: DEFAULT_BULK_LANE_CUTOVER_PCT,
        };
        release.rebuild(fm.matrix())?;
        Ok(release)
    }

    /// Runs the forward pipeline over `table`, writing every axis's kernel
    /// state and the exact coefficients into the release's own buffers
    /// (sized on the first call). The executor is per call, so its
    /// intermediate is freed on return.
    fn rebuild(&mut self, table: &NdMatrix) -> Result<()> {
        self.transform.forward_keeping_state(
            &mut LaneExecutor::new(),
            table,
            &mut self.states,
            self.exact.as_mut_slice(),
        )
    }

    /// The schema of the underlying table.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The HN transform maintained in the coefficient domain.
    pub fn transform(&self) -> &HnTransform {
        &self.transform
    }

    /// The maintained exact (pre-noise) coefficient matrix — bit-identical
    /// to the forward transform of the current table. Never publish this
    /// directly: it carries no noise.
    pub fn exact_coefficients(&self) -> &NdMatrix {
        &self.exact
    }

    /// The sequential-composition budget ledger.
    pub fn ledger(&self) -> &BudgetLedger {
        &self.ledger
    }

    /// Epochs published so far.
    pub fn epoch(&self) -> u32 {
        self.ledger.epochs()
    }

    /// Overrides the whole-lane recompute cutover (percent of a lane's
    /// leaves that must be dirty; `0` = always, `> 100` = never),
    /// [`DEFAULT_BULK_LANE_CUTOVER_PCT`] otherwise.
    /// Both modes are bit-identical — this is a performance knob and a
    /// test seam, never a semantics switch.
    pub fn with_lane_cutover_pct(mut self, pct: usize) -> Self {
        self.lane_cutover_pct = pct;
        self
    }

    /// The active whole-lane recompute cutover, in percent.
    pub fn lane_cutover_pct(&self) -> usize {
        self.lane_cutover_pct
    }

    /// Upper bound on coefficients touched by one increment:
    /// `∏ᵢ max_update_support(i)` (for all-ordinal schemas this is the
    /// `∏ᵢ (⌈log₂ mᵢ⌉ + 1)` of the paper's Haar path analysis). The
    /// product saturates instead of wrapping on very wide schemas.
    pub fn touch_bound(&self) -> usize {
        saturating_touch_bound(self.transform.transforms())
    }

    /// Validation shared by every ingest path — wrong arity or an
    /// out-of-domain coordinate is an `Err`, never a panic.
    fn validate_cell(&self, cell: &[usize]) -> Result<()> {
        let d = self.transform.ndim();
        if cell.len() != d {
            return Err(CoreError::BadQueryArity {
                expected: d,
                got: cell.len(),
            });
        }
        for (axis, (&c, t)) in cell.iter().zip(self.transform.transforms()).enumerate() {
            if c >= t.input_len() {
                return Err(CoreError::BadQueryBounds {
                    axis,
                    lo: c,
                    hi: c,
                    len: t.input_len(),
                });
            }
        }
        Ok(())
    }

    /// Absorbs `delta` added to table cell `cell`, updating the exact
    /// coefficients sparsely — a batch of one through
    /// [`apply_increments`](Self::apply_increments). Returns the number of
    /// coefficients written (≤ [`touch_bound`](Self::touch_bound)).
    pub fn apply_increment(&mut self, cell: &[usize], delta: f64) -> Result<usize> {
        Ok(self
            .apply_increments(&[(cell.to_vec(), delta)])?
            .coefficients_written)
    }

    /// Absorbs a whole batch of `(cell, delta)` increments at a cost
    /// proportional to the **distinct dirty coefficients** instead of
    /// `batch × ∏ log mᵢ`: the batch is validated up front (a bad cell or
    /// a non-finite delta rejects it before *any* state changes),
    /// duplicate cells coalesce onto one dirty path (their `+=` deltas
    /// replay in arrival order), and each axis walks every dirty lane's
    /// kernel state once, recomputing each dirty coefficient exactly once.
    ///
    /// The exact coefficient tensor afterwards is **bit-identical** to the
    /// forward transform of the table with the batch's `+=` applied in
    /// order (every recomputed node is the same pure float expression of
    /// the same final leaf states), and the returned [`IngestReport`]
    /// shows what coalescing saved.
    pub fn apply_increments(&mut self, increments: &[(Vec<usize>, f64)]) -> Result<IngestReport> {
        for (index, (cell, delta)) in increments.iter().enumerate() {
            self.validate_cell(cell)?;
            if !delta.is_finite() {
                return Err(CoreError::NonFiniteIncrement {
                    index,
                    delta: *delta,
                });
            }
        }
        self.bulk_apply(increments.iter().map(|(cell, delta)| (cell, *delta)))
    }

    /// Absorbs a batch of row arrivals (each row is `+1` at its cell)
    /// through the coalesced bulk path — rows hitting the same cell share
    /// one dirty walk.
    pub fn apply_rows(&mut self, rows: &[Vec<usize>]) -> Result<IngestReport> {
        for row in rows {
            self.validate_cell(row)?;
        }
        self.bulk_apply(rows.iter().map(|row| (row, 1.0)))
    }

    /// The dirty-set propagation of an already validated batch. See the
    /// module docs for the design.
    fn bulk_apply<'a>(
        &mut self,
        batch: impl Iterator<Item = (&'a Vec<usize>, f64)>,
    ) -> Result<IngestReport> {
        let in_shape = Shape::new(&self.transform.input_dims())?;
        let in_strides = in_shape.strides();
        self.workspace.pending.clear();
        for (cell, delta) in batch {
            let lin: usize = cell.iter().zip(in_strides).map(|(&c, &s)| c * s).sum();
            self.workspace.pending.push((lin, delta));
        }
        let increments = self.workspace.pending.len();
        let cutover_pct = self.lane_cutover_pct;
        let mut distinct_cells = 0usize;
        {
            let Self {
                ref transform,
                ref mut states,
                ref mut workspace,
                ..
            } = *self;
            let BatchWorkspace {
                pending,
                entries,
                next,
                scratch,
            } = workspace;
            for (axis, t) in transform.transforms().iter().enumerate() {
                let state = &mut states[axis];
                // The element stride along the axis (= the inner block) is
                // the product of the trailing input dims, which no axis
                // step changes — shared by the input, state, and output
                // spaces.
                let stride = in_strides[axis];
                let in_n = t.input_len();
                let out_n = t.output_len();
                let s_n = t.state_len();
                if scratch.marks.len() < s_n {
                    scratch.marks.resize(s_n, false);
                }
                let chunk = in_n * stride;
                entries.clear();
                for (seq, &(lin, value)) in pending.iter().enumerate() {
                    let outer = lin / chunk;
                    let rem = lin % chunk;
                    entries.push(Entry {
                        lane: outer * stride + rem % stride,
                        pos: rem / stride,
                        seq,
                        value,
                    });
                }
                // Total order (seq is unique), so the unstable sort is
                // deterministic and allocation-free.
                entries.sort_unstable_by_key(|e| (e.lane, e.pos, e.seq));
                next.clear();
                let is_delta = axis == 0;
                let mut i = 0usize;
                while i < entries.len() {
                    let lane = entries[i].lane;
                    let mut j = i + 1;
                    while j < entries.len() && entries[j].lane == lane {
                        j += 1;
                    }
                    let outer = lane / stride;
                    let inner = lane % stride;
                    let ctx = LaneCtx {
                        stride,
                        state_base: outer * s_n * stride + inner,
                        out_base: outer * out_n * stride + inner,
                        is_delta,
                        cutover_pct,
                    };
                    let dc = process_lane(t, state, ctx, &entries[i..j], scratch, next);
                    if is_delta {
                        distinct_cells += dc;
                    }
                    i = j;
                }
                std::mem::swap(pending, next);
            }
        }
        // The surviving pending set is the distinct dirty coefficients,
        // as linear indices into the (row-major) exact tensor.
        let slab = self.exact.as_mut_slice();
        for &(lin, v) in &self.workspace.pending {
            slab[lin] = v;
        }
        let written = self.workspace.pending.len();
        let per_increment = saturating_touch_bound(self.transform.transforms());
        let bound = distinct_cells.saturating_mul(per_increment).min(slab.len());
        debug_assert!(written <= bound || increments == 0);
        Ok(IngestReport {
            increments,
            coalesced_cells: increments - distinct_cells,
            coefficients_written: written,
            touch_bound: bound,
        })
    }

    /// Exponential decay: scales the maintained table by `alpha` and
    /// rebuilds every kernel state and the exact tensor with one forward
    /// pass over the scaled leaves, in place.
    ///
    /// Why rebuild instead of just multiplying every stored state and
    /// coefficient by `alpha`? Floating-point multiplication does not
    /// distribute over the kernels' additions — `α·(a + b)` and
    /// `α·a + α·b` can differ in the last ulp — so a scaled pyramid would
    /// drift off the "forward of the scaled table" contract. Rebuilding
    /// from the scaled leaves keeps [`advance_epoch`](Self::advance_epoch)
    /// bit-identical to a from-scratch publish on a table whose cells
    /// were scaled by the same `α · x` expression (pinned in
    /// `tests/streaming_release.rs`). Cost is one forward — the same
    /// tiled executor pipeline [`new`](Self::new) runs, writing into the
    /// existing state and coefficient buffers.
    pub fn decay(&mut self, alpha: f64) -> Result<()> {
        if !alpha.is_finite() || alpha <= 0.0 {
            return Err(CoreError::BadDecayFactor(alpha));
        }
        // Axis 0 is outermost, so its state is `(s₀, in₁, …, in_d)`: the
        // leaf of position `pos` is one contiguous row of the table.
        let dims = self.transform.input_dims();
        let row: usize = dims[1..].iter().product();
        let t0 = &self.transform.transforms()[0];
        let leaves = &self.states[0];
        let mut table = Vec::with_capacity(dims[0] * row);
        for pos in 0..dims[0] {
            let start = leaf_slot(t0, pos) * row;
            table.extend(leaves[start..start + row].iter().map(|&x| alpha * x));
        }
        self.rebuild(&NdMatrix::from_vec(&dims, table)?)
    }

    /// Publishes one epoch: debits `epoch_epsilon` from the lifetime
    /// budget (refusing with
    /// [`CoreError::BudgetExhausted`](crate::CoreError)
    /// **before any noise is drawn**), then draws fresh weighted Laplace
    /// noise at `seed` over a copy of the exact coefficients through the
    /// publishers' shared injection seam — so the output is bit-identical
    /// to `publish_coefficients` run from scratch on the current table
    /// with the same seed and ε.
    pub fn advance_epoch(&mut self, epoch_epsilon: f64, seed: u64) -> Result<CoefficientOutput> {
        let meta = PrivacyMeta::for_transform(&self.transform, epoch_epsilon)?;
        self.ledger.try_spend(epoch_epsilon)?;
        let mut coefficients = self.exact.clone();
        add_weighted_noise(
            &self.transform,
            coefficients.as_mut_slice(),
            meta.lambda,
            seed,
        )?;
        Ok(CoefficientOutput {
            schema: self.schema.clone(),
            transform: self.transform.clone(),
            coefficients,
            meta,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mechanism::{publish_coefficients, PriveletConfig};
    use privelet_data::schema::Attribute;
    use privelet_hierarchy::builder::{flat, three_level};

    fn fm_for(schema: Schema, seed: u64) -> FrequencyMatrix {
        let n = schema.cell_count();
        let data: Vec<f64> = (0..n)
            .map(|i| (((i as u64).wrapping_mul(seed | 1) >> 40) & 0xFF) as f64)
            .collect();
        FrequencyMatrix::from_parts(
            schema.clone(),
            NdMatrix::from_vec(&schema.dims(), data).unwrap(),
        )
        .unwrap()
    }

    fn mixed_schema() -> Schema {
        Schema::new(vec![
            Attribute::ordinal("age", 5), // pads to 8
            Attribute::nominal("occ", three_level(6, 2).unwrap()),
            Attribute::ordinal("income", 4),
        ])
        .unwrap()
    }

    #[test]
    fn initial_exact_coefficients_match_forward_bitwise() {
        let fm = fm_for(mixed_schema(), 11);
        let rel = IncrementalRelease::new(&fm, &BTreeSet::new(), 1.0).unwrap();
        let hn = HnTransform::for_schema(fm.schema(), &BTreeSet::new()).unwrap();
        let dense = hn.forward(fm.matrix()).unwrap();
        for (i, (a, b)) in rel
            .exact_coefficients()
            .as_slice()
            .iter()
            .zip(dense.as_slice())
            .enumerate()
        {
            assert_eq!(a.to_bits(), b.to_bits(), "coeff {i}");
        }
    }

    #[test]
    fn increments_track_forward_bitwise() {
        let schema = mixed_schema();
        let fm = fm_for(schema.clone(), 7);
        let mut rel = IncrementalRelease::new(&fm, &BTreeSet::new(), 1.0).unwrap();
        let hn = HnTransform::for_schema(&schema, &BTreeSet::new()).unwrap();
        let bound = rel.touch_bound();

        let mut table = fm.matrix().as_slice().to_vec();
        let dims = schema.dims();
        let cells = [[0usize, 0, 0], [4, 5, 3], [2, 3, 1], [4, 0, 0], [2, 3, 1]];
        for (k, cell) in cells.iter().enumerate() {
            let delta = (k as f64) * 1.5 - 2.0;
            let written = rel.apply_increment(cell, delta).unwrap();
            assert!(written <= bound, "wrote {written} > bound {bound}");
            let lin = cell[0] * dims[1] * dims[2] + cell[1] * dims[2] + cell[2];
            table[lin] += delta;
            let updated = NdMatrix::from_vec(&dims, table.clone()).unwrap();
            let dense = hn.forward(&updated).unwrap();
            for (i, (a, b)) in rel
                .exact_coefficients()
                .as_slice()
                .iter()
                .zip(dense.as_slice())
                .enumerate()
            {
                assert_eq!(a.to_bits(), b.to_bits(), "step {k} coeff {i}");
            }
        }
    }

    /// The bulk path must equal the sequential loop bit for bit — same
    /// cells, same order, duplicates included — in every cutover mode,
    /// and both must equal the forward of the mirrored table.
    #[test]
    fn bulk_batch_matches_sequential_loop_bitwise() {
        let schema = mixed_schema();
        let fm = fm_for(schema.clone(), 13);
        let batch: Vec<(Vec<usize>, f64)> = vec![
            (vec![0, 0, 0], 2.0),
            (vec![4, 5, 3], -1.5),
            (vec![0, 0, 0], 0.25), // duplicate cell: += replay order matters
            (vec![2, 3, 1], 7.0),
            (vec![0, 0, 0], -3.0),
            (vec![2, 3, 2], 1.0),
        ];
        let mut seq = IncrementalRelease::new(&fm, &BTreeSet::new(), 1.0).unwrap();
        let mut seq_written = 0usize;
        for (cell, delta) in &batch {
            seq_written += seq.apply_increment(cell, *delta).unwrap();
        }
        let mut mirror = fm.matrix().clone();
        for (cell, delta) in &batch {
            mirror.add_at(cell, *delta).unwrap();
        }
        let hn = HnTransform::for_schema(&schema, &BTreeSet::new()).unwrap();
        let dense = hn.forward(&mirror).unwrap();
        for (i, (a, b)) in seq
            .exact_coefficients()
            .as_slice()
            .iter()
            .zip(dense.as_slice())
            .enumerate()
        {
            assert_eq!(a.to_bits(), b.to_bits(), "sequential coeff {i}");
        }
        for pct in [0usize, DEFAULT_BULK_LANE_CUTOVER_PCT, 101] {
            let mut bulk = IncrementalRelease::new(&fm, &BTreeSet::new(), 1.0)
                .unwrap()
                .with_lane_cutover_pct(pct);
            let report = bulk.apply_increments(&batch).unwrap();
            assert_eq!(report.increments, 6);
            assert_eq!(report.coalesced_cells, 2, "three arrivals at one cell");
            assert!(report.coefficients_written <= seq_written);
            assert!(report.coefficients_written <= report.touch_bound);
            for (i, (a, b)) in bulk
                .exact_coefficients()
                .as_slice()
                .iter()
                .zip(seq.exact_coefficients().as_slice())
                .enumerate()
            {
                assert_eq!(a.to_bits(), b.to_bits(), "pct {pct} coeff {i}");
            }
        }
    }

    #[test]
    fn empty_batch_is_a_well_defined_no_op() {
        let fm = fm_for(mixed_schema(), 3);
        let mut rel = IncrementalRelease::new(&fm, &BTreeSet::new(), 1.0).unwrap();
        let before: Vec<u64> = rel
            .exact_coefficients()
            .as_slice()
            .iter()
            .map(|v| v.to_bits())
            .collect();
        let report = rel.apply_increments(&[]).unwrap();
        assert_eq!(
            report,
            IngestReport {
                increments: 0,
                coalesced_cells: 0,
                coefficients_written: 0,
                touch_bound: 0,
            }
        );
        let after: Vec<u64> = rel
            .exact_coefficients()
            .as_slice()
            .iter()
            .map(|v| v.to_bits())
            .collect();
        assert_eq!(before, after);
    }

    #[test]
    fn bulk_rejects_bad_cells_before_any_state_change() {
        let fm = fm_for(mixed_schema(), 5);
        let mut rel = IncrementalRelease::new(&fm, &BTreeSet::new(), 1.0).unwrap();
        // A good increment ahead of the bad one must not be applied.
        let batch = vec![(vec![0usize, 0, 0], 5.0), (vec![5, 0, 0], 1.0)];
        assert!(matches!(
            rel.apply_increments(&batch).unwrap_err(),
            CoreError::BadQueryBounds { axis: 0, lo: 5, .. }
        ));
        let hn = HnTransform::for_schema(fm.schema(), &BTreeSet::new()).unwrap();
        let dense = hn.forward(fm.matrix()).unwrap();
        assert_eq!(rel.exact_coefficients().as_slice(), dense.as_slice());
    }

    /// NaN and ±∞ deltas are refused with their batch index before any
    /// state changes, on the bulk path and the single-increment path.
    #[test]
    fn bulk_rejects_non_finite_deltas_before_any_state_change() {
        let fm = fm_for(mixed_schema(), 5);
        let mut rel = IncrementalRelease::new(&fm, &BTreeSet::new(), 1.0).unwrap();
        let before: Vec<u64> = rel
            .exact_coefficients()
            .as_slice()
            .iter()
            .map(|v| v.to_bits())
            .collect();
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            // The good increment ahead of the bad one must not be applied.
            let batch = vec![(vec![0usize, 0, 0], 5.0), (vec![3, 4, 2], bad)];
            match rel.apply_increments(&batch).unwrap_err() {
                CoreError::NonFiniteIncrement { index, delta } => {
                    assert_eq!(index, 1);
                    assert_eq!(delta.to_bits(), bad.to_bits());
                }
                other => panic!("want NonFiniteIncrement, got {other:?}"),
            }
            assert!(matches!(
                rel.apply_increment(&[3, 4, 2], bad).unwrap_err(),
                CoreError::NonFiniteIncrement { index: 0, .. }
            ));
        }
        let after: Vec<u64> = rel
            .exact_coefficients()
            .as_slice()
            .iter()
            .map(|v| v.to_bits())
            .collect();
        assert_eq!(before, after);
        // The next epoch is still the publish of the untouched table.
        let scratch = publish_coefficients(&fm, &PriveletConfig::pure(0.5, 4)).unwrap();
        let epoch = rel.advance_epoch(0.5, 4).unwrap();
        assert!(epoch.coefficients.as_slice().iter().all(|v| v.is_finite()));
        assert_eq!(epoch.coefficients, scratch.coefficients);
    }

    /// Satellite: the touch-bound product saturates instead of wrapping.
    /// Five flat nominal dimensions of 2^17 leaves put the true product
    /// near 2^85 — a plain `product()` fold wraps to a small lie.
    #[test]
    fn touch_bound_saturates_on_wide_schemas() {
        let wide = std::sync::Arc::new(flat(1 << 17).unwrap());
        let transforms: Vec<DimTransform> = (0..5)
            .map(|_| DimTransform::Nominal(crate::transform::NominalTransform::new(wide.clone())))
            .collect();
        let per_dim = transforms[0].max_update_support();
        assert_eq!(per_dim, (1 << 17) + 1);
        assert_eq!(saturating_touch_bound(&transforms), usize::MAX);
        // Sanity: the same fold on a small schema is exact.
        let small = vec![
            DimTransform::Haar(crate::transform::HaarTransform::new(8)),
            DimTransform::Identity(crate::transform::IdentityTransform::new(3)),
        ];
        assert_eq!(saturating_touch_bound(&small), 4);
    }

    /// `decay` must be bit-identical to a forward transform of the
    /// elementwise-scaled table — including for an α whose scaling does
    /// *not* distribute over float addition.
    #[test]
    fn decay_matches_forward_of_scaled_table_bitwise() {
        let schema = mixed_schema();
        let fm = fm_for(schema.clone(), 17);
        let mut rel = IncrementalRelease::new(&fm, &BTreeSet::new(), 1.0).unwrap();
        rel.apply_increment(&[1, 2, 3], 0.371).unwrap();

        let mut table = fm.matrix().as_slice().to_vec();
        let dims = schema.dims();
        table[dims[1] * dims[2] + 2 * dims[2] + 3] += 0.371;
        for alpha in [0.5f64, 0.3, 0.875] {
            rel.decay(alpha).unwrap();
            for v in &mut table {
                *v *= alpha;
            }
            let hn = HnTransform::for_schema(&schema, &BTreeSet::new()).unwrap();
            let dense = hn
                .forward(&NdMatrix::from_vec(&dims, table.clone()).unwrap())
                .unwrap();
            for (i, (a, b)) in rel
                .exact_coefficients()
                .as_slice()
                .iter()
                .zip(dense.as_slice())
                .enumerate()
            {
                assert_eq!(a.to_bits(), b.to_bits(), "alpha {alpha} coeff {i}");
            }
        }
        // And the decayed state keeps absorbing increments bit-exactly.
        rel.apply_increment(&[4, 1, 0], 2.0).unwrap();
        table[4 * dims[1] * dims[2] + dims[2]] += 2.0;
        let hn = HnTransform::for_schema(&schema, &BTreeSet::new()).unwrap();
        let dense = hn
            .forward(&NdMatrix::from_vec(&dims, table).unwrap())
            .unwrap();
        assert_eq!(rel.exact_coefficients().as_slice(), dense.as_slice());
    }

    #[test]
    fn decay_rejects_non_positive_factors() {
        let fm = fm_for(mixed_schema(), 5);
        let mut rel = IncrementalRelease::new(&fm, &BTreeSet::new(), 1.0).unwrap();
        for bad in [0.0, -0.5, f64::NAN, f64::INFINITY] {
            assert!(matches!(
                rel.decay(bad).unwrap_err(),
                CoreError::BadDecayFactor(_)
            ));
        }
    }

    #[test]
    fn epoch_output_is_bit_identical_to_from_scratch_publish() {
        let schema = mixed_schema();
        let fm = fm_for(schema.clone(), 3);
        let mut rel = IncrementalRelease::new(&fm, &BTreeSet::new(), 1.0).unwrap();
        let mut table = fm.matrix().as_slice().to_vec();
        let dims = schema.dims();
        rel.apply_increment(&[1, 2, 3], 4.0).unwrap();
        table[(dims[1] * dims[2]) + 2 * dims[2] + 3] += 4.0;

        let updated =
            FrequencyMatrix::from_parts(schema.clone(), NdMatrix::from_vec(&dims, table).unwrap())
                .unwrap();
        let scratch = publish_coefficients(&updated, &PriveletConfig::pure(0.25, 99)).unwrap();
        let epoch = rel.advance_epoch(0.25, 99).unwrap();
        assert_eq!(epoch.meta, scratch.meta);
        for (i, (a, b)) in epoch
            .coefficients
            .as_slice()
            .iter()
            .zip(scratch.coefficients.as_slice())
            .enumerate()
        {
            assert_eq!(a.to_bits(), b.to_bits(), "coeff {i}");
        }
        assert_eq!(rel.epoch(), 1);
    }

    #[test]
    fn over_spend_is_refused_without_side_effects() {
        let fm = fm_for(mixed_schema(), 5);
        let mut rel = IncrementalRelease::new(&fm, &BTreeSet::new(), 0.5).unwrap();
        rel.advance_epoch(0.25, 1).unwrap();
        let err = rel.advance_epoch(0.5, 2).unwrap_err();
        assert!(matches!(err, CoreError::BudgetExhausted { .. }));
        // The refusal spent nothing and drew nothing: the remaining budget
        // still publishes bit-identically to a from-scratch run.
        assert_eq!(rel.ledger().epochs(), 1);
        assert_eq!(rel.ledger().spent(), 0.25);
        let scratch = publish_coefficients(&fm, &PriveletConfig::pure(0.25, 3)).unwrap();
        let epoch = rel.advance_epoch(0.25, 3).unwrap();
        for (a, b) in epoch
            .coefficients
            .as_slice()
            .iter()
            .zip(scratch.coefficients.as_slice())
        {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn bad_cells_are_rejected_not_panicked() {
        let fm = fm_for(mixed_schema(), 5);
        let mut rel = IncrementalRelease::new(&fm, &BTreeSet::new(), 1.0).unwrap();
        assert!(matches!(
            rel.apply_increment(&[0, 0], 1.0).unwrap_err(),
            CoreError::BadQueryArity {
                expected: 3,
                got: 2
            }
        ));
        assert!(matches!(
            rel.apply_increment(&[5, 0, 0], 1.0).unwrap_err(),
            CoreError::BadQueryBounds {
                axis: 0,
                lo: 5,
                len: 5,
                ..
            }
        ));
        // A rejected increment changed nothing.
        let hn = HnTransform::for_schema(fm.schema(), &BTreeSet::new()).unwrap();
        let dense = hn.forward(fm.matrix()).unwrap();
        assert_eq!(rel.exact_coefficients().as_slice(), dense.as_slice());
    }

    #[test]
    fn privelet_plus_identity_axes_stream_too() {
        let schema = Schema::new(vec![
            Attribute::ordinal("small", 3),
            Attribute::ordinal("large", 9),
        ])
        .unwrap();
        let sa = BTreeSet::from([0usize]);
        let fm = fm_for(schema.clone(), 21);
        let mut rel = IncrementalRelease::new(&fm, &sa, 1.0).unwrap();
        // Identity axis: one touch; Haar axis (9 → 16): ⌈log₂ 9⌉ + 1.
        assert_eq!(rel.touch_bound(), 4 + 1);
        let written = rel.apply_increment(&[2, 8], -3.0).unwrap();
        assert_eq!(written, 5);

        let mut table = fm.matrix().as_slice().to_vec();
        table[2 * 9 + 8] -= 3.0;
        let hn = HnTransform::for_schema(&schema, &sa).unwrap();
        let dense = hn
            .forward(&NdMatrix::from_vec(&schema.dims(), table).unwrap())
            .unwrap();
        for (a, b) in rel
            .exact_coefficients()
            .as_slice()
            .iter()
            .zip(dense.as_slice())
        {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn apply_rows_is_a_plus_one_batch() {
        let fm = fm_for(mixed_schema(), 9);
        let mut rel = IncrementalRelease::new(&fm, &BTreeSet::new(), 1.0).unwrap();
        let rows = vec![vec![0, 0, 0], vec![4, 5, 3], vec![0, 0, 0]];
        let report = rel.apply_rows(&rows).unwrap();
        assert_eq!(report.increments, 3);
        assert_eq!(report.coalesced_cells, 1, "one repeated row coalesces");
        assert!(report.coefficients_written <= report.touch_bound);
        assert!(report.touch_bound <= 2 * rel.touch_bound());

        let mut table = fm.matrix().as_slice().to_vec();
        let dims = fm.schema().dims();
        for row in &rows {
            table[row[0] * dims[1] * dims[2] + row[1] * dims[2] + row[2]] += 1.0;
        }
        let hn = HnTransform::for_schema(fm.schema(), &BTreeSet::new()).unwrap();
        let dense = hn
            .forward(&NdMatrix::from_vec(&dims, table).unwrap())
            .unwrap();
        assert_eq!(rel.exact_coefficients().as_slice(), dense.as_slice());
    }
}
