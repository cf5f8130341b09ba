//! The lane-execution engine: multi-stage axis transforms over reusable
//! ping-pong buffers.
//!
//! [`map_lanes`](crate::lanes::map_lanes) allocates a fresh matrix per
//! axis, which makes a d-dimensional wavelet transform cost d matrix-sized
//! allocations per direction. The [`LaneExecutor`] instead owns two
//! buffers sized to the largest intermediate and runs an arbitrary
//! pipeline of [`AxisStage`]s front→back, swapping after each stage, so a
//! full multi-axis transform performs **no matrix-sized** allocation
//! beyond the final result matrix (and the two executor buffers, which
//! amortize across calls) — only O(d) lane-length scratch buffers per
//! call, a few KB against multi-MB matrices.
//!
//! Lanes are walked in the row-major `[outer, axis, inner]` decomposition:
//! for the last axis (`inner == 1`) lanes are contiguous in memory and are
//! fed to the kernel directly without a gather; for other axes lanes are
//! processed in **cache-blocked tiles** of up to
//! [`tile_lanes`](LaneExecutor::tile_lanes) adjacent inner-index lanes. A
//! per-element strided gather wastes up to 7/8 of every fetched cache
//! line (stride ≥ 8 f64s ⇒ one useful f64 per 64-byte line, and the line
//! is usually evicted before the adjacent lane wants its neighbour);
//! the tile instead performs a blocked transpose — each axis position
//! `j` contributes one *contiguous* `T`-wide read serving all `T` lanes
//! of the tile at once — into a reused `lane_len × T` scratch block,
//! applies the kernel lane-by-lane inside the tile, and scatters back
//! through the same contiguous rows. Per-lane arithmetic (the kernel
//! call and its operand order) is untouched, so tiled output is
//! **bitwise identical** to the per-lane walk. Tiles never cross an
//! outer-block boundary, and their width is capped so the tile scratch
//! stays cache-sized ([`TILE_CELL_BUDGET`]).
//!
//! A stage may also **keep state**: [`run_into`](LaneExecutor::run_into)
//! scatters each lane's leading [`state_len`](LaneKernel::state_len)
//! scratch slots (for a wavelet forward: the averaging pyramid or the
//! leaf-sums) into a caller-owned `[outer, state_len, inner]` buffer
//! through the same tile rows as the output, and writes the last stage
//! into a caller-owned slice.
//!
//! Every stage runs on the calling thread.

use crate::ndmatrix::NdMatrix;
use crate::{MatrixError, Result};

/// A 1-D kernel applied to every lane of one axis.
///
/// Implementations **must write every element of `dst`**: its contents on
/// entry are unspecified (the engine reuses buffers across stages and
/// calls, so it may hold stale data, which the engine deliberately does
/// not spend a clearing pass on). `scratch` (at least [`scratch_len`]
/// elements, contents likewise unspecified) may be used freely.
///
/// [`scratch_len`]: LaneKernel::scratch_len
pub trait LaneKernel {
    /// Lane length consumed along the axis.
    fn input_len(&self) -> usize;
    /// Lane length produced along the axis.
    fn output_len(&self) -> usize;
    /// Scratch slots the kernel needs per lane.
    fn scratch_len(&self) -> usize {
        self.output_len()
    }
    /// Leading scratch slots that hold the lane's state once
    /// [`apply`](Self::apply) returns, all written on every call; a stage
    /// given a state buffer keeps them. `0` (the default) = stateless.
    fn state_len(&self) -> usize {
        0
    }
    /// Transforms one gathered lane.
    fn apply(&self, src: &[f64], dst: &mut [f64], scratch: &mut [f64]);
}

/// One step of a lane pipeline: apply `kernel` to every lane along `axis`.
pub struct AxisStage<'a> {
    /// The axis whose lanes are transformed.
    pub axis: usize,
    /// The 1-D kernel.
    pub kernel: &'a dyn LaneKernel,
}

/// Reusable engine state: ping-pong buffers plus the tile width.
///
/// Construct once, call [`run`](Self::run) many times; the buffers grow to
/// the largest pipeline seen and are then reused allocation-free.
#[derive(Debug)]
pub struct LaneExecutor {
    front: Vec<f64>,
    back: Vec<f64>,
    tile_lanes: usize,
}

impl Default for LaneExecutor {
    /// Same as [`LaneExecutor::new`] (a derived default would set a tile
    /// width of 0, bypassing the `with_tile_lanes` clamp).
    fn default() -> Self {
        Self::new()
    }
}

/// Default tile width for the strided-lane path: how many adjacent
/// inner-index lanes are gathered, transformed and scattered per tile.
/// 8 f64s fill one 64-byte cache line, so every fetched line in the
/// gather is fully consumed; the calibration sweep (`publish_throughput`'s
/// `tile` sweep, recorded in docs/architecture.md) showed the publish
/// throughput plateau starts here and wider tiles only grow the scratch
/// footprint. Overridable per executor with
/// [`LaneExecutor::with_tile_lanes`].
pub const DEFAULT_TILE_LANES: usize = 8;

/// Upper bound on one tile buffer's size in f64 cells (`lane_len × T ≤`
/// this, for both the input and the output tile). 2^16 cells = 512 KiB —
/// small enough that a tile pair plus the source rows it streams stay
/// inside a typical L2, large enough never to constrain the tile width
/// on the lane lengths where tiling matters (the width degrades
/// gracefully toward the per-lane walk for extremely long lanes).
pub const TILE_CELL_BUDGET: usize = 1 << 16;

/// The tile width actually used by one stage: the requested width,
/// clamped so (a) contiguous stages (`inner == 1`) never gather at all,
/// (b) a tile never exceeds the `inner` extent (tiles cannot cross an
/// outer-block boundary), and (c) neither tile buffer exceeds
/// [`TILE_CELL_BUDGET`] cells — extremely long lanes degrade gracefully
/// toward the per-lane walk instead of blowing up the tile scratch.
fn effective_tile(requested: usize, in_len: usize, out_len: usize, inner: usize) -> usize {
    if inner == 1 {
        return 1;
    }
    let widest_lane = in_len.max(out_len).max(1);
    let budget_cap = (TILE_CELL_BUDGET / widest_lane).max(1);
    requested.clamp(1, budget_cap).min(inner)
}

/// Validates a pipeline before anything runs: each stage must consume
/// the axis length the previous stages left (`kernel.input_len() ==
/// dims[axis]` at that point). Returns the final dims, the cells each
/// stage keeps as state (`outer · state_len · inner`), and the cells each
/// ping-pong buffer must hold: intermediate `t` (the output of every
/// stage but the last) lands in `back` for even `t` and in `front` for
/// odd `t` (the buffers swap after every stage, and back again after the
/// run), so a two-stage pipeline never touches `front`.
fn plan(
    src_dims: &[usize],
    stages: &[AxisStage<'_>],
) -> Result<(Vec<usize>, Vec<usize>, [usize; 2])> {
    let cells = |dims: &[usize]| {
        dims.iter()
            .try_fold(1usize, |c, &d| c.checked_mul(d))
            .ok_or(MatrixError::TooLarge)
    };
    let mut dims = src_dims.to_vec();
    let mut kept = Vec::with_capacity(stages.len());
    let mut capacity = [0usize; 2];
    for (idx, stage) in stages.iter().enumerate() {
        let (axis, kernel) = (stage.axis, stage.kernel);
        if axis >= dims.len() {
            return Err(MatrixError::BadAxis {
                axis,
                ndim: dims.len(),
            });
        }
        if kernel.input_len() != dims[axis] {
            return Err(MatrixError::KernelLenMismatch {
                axis,
                axis_len: dims[axis],
                kernel_len: kernel.input_len(),
            });
        }
        if kernel.output_len() == 0 {
            return Err(MatrixError::ZeroDim { axis });
        }
        dims[axis] = kernel.state_len();
        kept.push(cells(&dims)?);
        dims[axis] = kernel.output_len();
        let stage_cells = cells(&dims)?;
        if idx + 1 < stages.len() {
            capacity[idx % 2] = capacity[idx % 2].max(stage_cells);
        }
    }
    Ok((dims, kept, capacity))
}

/// Replaces `buf` with a zeroed buffer of `cells` unless it already holds
/// at least (`exact`: exactly) that many. The old contents are not
/// needed, so it is freed first and nothing is copied; the fresh zeroed
/// allocation is only paged in where a stage writes it.
fn reserve_cells(buf: &mut Vec<f64>, cells: usize, exact: bool) {
    if buf.len() < cells || (exact && buf.len() != cells) {
        *buf = Vec::new();
        *buf = vec![0.0; cells];
    }
}

impl LaneExecutor {
    /// An executor with empty buffers and the default tile width
    /// ([`DEFAULT_TILE_LANES`]).
    pub fn new() -> Self {
        LaneExecutor {
            front: Vec::new(),
            back: Vec::new(),
            tile_lanes: DEFAULT_TILE_LANES,
        }
    }

    /// Sets the tile width for strided stages: up to `lanes` adjacent
    /// inner-index lanes are gathered, transformed and scattered per
    /// cache-blocked tile (`0` is treated as 1, i.e. the per-lane walk).
    /// Tiling only changes the memory access pattern — output is bitwise
    /// identical for every width. Builder-style; overrides
    /// [`DEFAULT_TILE_LANES`].
    pub fn with_tile_lanes(mut self, lanes: usize) -> Self {
        self.tile_lanes = lanes.max(1);
        self
    }

    /// The configured tile width (adjacent lanes per cache-blocked tile)
    /// for strided stages.
    pub fn tile_lanes(&self) -> usize {
        self.tile_lanes
    }

    /// Runs a single-stage pipeline (convenience wrapper over [`run`]).
    ///
    /// [`run`]: Self::run
    pub fn map_axis(
        &mut self,
        src: &NdMatrix,
        axis: usize,
        kernel: &dyn LaneKernel,
    ) -> Result<NdMatrix> {
        self.run(src, &[AxisStage { axis, kernel }])
    }

    /// Applies `stages` to `src` in order and returns the final matrix.
    ///
    /// Each stage must consume the axis length the previous stages left
    /// (`kernel.input_len() == dims[axis]` at that point in the pipeline).
    /// The only matrix-sized allocation on a warmed-up executor is the
    /// returned matrix; each stage additionally allocates lane-length
    /// gather/scratch buffers (a few KB).
    pub fn run(&mut self, src: &NdMatrix, stages: &[AxisStage<'_>]) -> Result<NdMatrix> {
        let (dims, _, _) = plan(src.dims(), stages)?;
        // The run's one matrix-sized allocation.
        let mut result = vec![0.0f64; dims.iter().product()];
        self.run_into(src, stages, &mut [], &mut result)?;
        NdMatrix::from_vec(&dims, result)
    }

    /// [`run`](Self::run) into caller-owned buffers: the last stage writes
    /// `out` (the final matrix, row-major; its length is checked before
    /// any stage runs), and stage `i` keeps its per-lane kernel state in
    /// `states[i]` when given — each lane's first
    /// [`state_len`](LaneKernel::state_len) scratch slots after `apply`,
    /// laid out `[outer, state_len, inner]` in that stage's geometry. A
    /// state buffer is resized to exactly those cells, so a caller that
    /// reruns the same pipeline reuses its buffers without allocating.
    /// Nothing else matrix-sized is allocated but the intermediates.
    pub fn run_into(
        &mut self,
        src: &NdMatrix,
        stages: &[AxisStage<'_>],
        states: &mut [Vec<f64>],
        out: &mut [f64],
    ) -> Result<()> {
        let (final_dims, kept, capacity) = plan(src.dims(), stages)?;
        let final_cells: usize = final_dims.iter().product();
        if out.len() != final_cells {
            return Err(MatrixError::DataLenMismatch {
                expected: final_cells,
                got: out.len(),
            });
        }
        reserve_cells(&mut self.back, capacity[0], false);
        reserve_cells(&mut self.front, capacity[1], false);
        for (state, &cells) in states.iter_mut().zip(&kept) {
            reserve_cells(state, cells, true);
        }
        if stages.is_empty() {
            out.copy_from_slice(src.as_slice());
            return Ok(());
        }

        // The first stage reads straight from `src` and the last writes
        // straight into `out`, so neither endpoint costs a staging copy.
        let mut dims = src.dims().to_vec();
        for (idx, stage) in stages.iter().enumerate() {
            let in_len = dims[stage.axis];
            let out_len = stage.kernel.output_len();
            let inner: usize = dims[stage.axis + 1..].iter().product();
            let outer: usize = dims[..stage.axis].iter().product();
            let src_cells = outer * in_len * inner;
            let state: &mut [f64] = match states.get_mut(idx) {
                Some(state) => state,
                None => &mut [],
            };
            let state_len = state.len() / (outer * inner);
            let geometry = Geometry {
                in_len,
                out_len,
                state_len,
                inner,
                // A state-keeping tile holds one kernel state per lane.
                tile: effective_tile(self.tile_lanes, in_len, out_len.max(state_len), inner),
            };
            let input: &[f64] = if idx == 0 {
                src.as_slice()
            } else {
                &self.front[..src_cells]
            };
            dims[stage.axis] = out_len;
            let last = idx + 1 == stages.len();
            let dst: &mut [f64] = if last {
                out
            } else {
                &mut self.back[..outer * out_len * inner]
            };
            run_stage(input, dst, state, stage.kernel, geometry);
            if last {
                // Undo an odd number of swaps, so each buffer keeps the
                // parity of intermediates it was sized for on the next run.
                if stages.len().is_multiple_of(2) {
                    std::mem::swap(&mut self.front, &mut self.back);
                }
                return Ok(());
            }
            std::mem::swap(&mut self.front, &mut self.back);
        }
        unreachable!("non-empty pipelines return from the final stage")
    }
}

/// One stage's lane geometry: lanes read `[outer, in_len, inner]`, write
/// `[outer, out_len, inner]` and, when `state_len > 0`, keep their first
/// `state_len` scratch slots at `[outer, state_len, inner]`; strided
/// lanes move in tiles of up to `tile`.
#[derive(Debug, Clone, Copy)]
struct Geometry {
    in_len: usize,
    out_len: usize,
    state_len: usize,
    inner: usize,
    tile: usize,
}

/// One stage's tile gather / output / scratch buffers. `tile_in` holds up
/// to `tile` gathered lanes of `in_len` each (lane `t` at
/// `[t*in_len, (t+1)*in_len)`), `tile_out` the corresponding outputs.
/// With `tile == 1` these collapse to single-lane gather buffers.
struct StageBufs {
    tile_in: Vec<f64>,
    tile_out: Vec<f64>,
    /// Kernel scratch: one block of `lane_scratch` slots shared by every
    /// lane, or — when the stage keeps state — one block per tile lane,
    /// so each lane's state survives until the tile scatters it.
    scratch: Vec<f64>,
    lane_scratch: usize,
    /// Offset between consecutive tile lanes' scratch blocks (0 = shared).
    scratch_step: usize,
    tile: usize,
}

impl StageBufs {
    fn new(kernel: &dyn LaneKernel, g: Geometry) -> Self {
        let tile = g.tile.max(1);
        let lane_scratch = kernel.scratch_len().max(g.state_len);
        let scratch_step = if g.state_len > 0 { lane_scratch } else { 0 };
        StageBufs {
            tile_in: vec![0.0; g.in_len * tile],
            tile_out: vec![0.0; g.out_len * tile],
            scratch: vec![0.0; lane_scratch + scratch_step * (tile - 1)],
            lane_scratch,
            scratch_step,
            tile,
        }
    }
}

/// Runs one stage over every lane of `src` on the calling thread.
fn run_stage(
    src: &[f64],
    dst: &mut [f64],
    state: &mut [f64],
    kernel: &dyn LaneKernel,
    g: Geometry,
) {
    debug_assert_eq!(dst.len(), src.len() / g.in_len * g.out_len);
    debug_assert_eq!(state.len(), src.len() / g.in_len * g.state_len);
    let mut bufs = StageBufs::new(kernel, g);
    process_lanes(src, dst, state, kernel, g, &mut bufs);
}

/// Processes every lane of `src`. A lane index `L` decomposes as
/// `(o, i) = (L / inner, L % inner)`; its source elements live at
/// `o*in_len*inner + j*inner + i`, its destination elements at
/// `o*out_len*inner + j*inner + i`, and its kept state (if any) at
/// `o*state_len*inner + j*inner + i`.
fn process_lanes(
    src: &[f64],
    dst: &mut [f64],
    state: &mut [f64],
    kernel: &dyn LaneKernel,
    g: Geometry,
    bufs: &mut StageBufs,
) {
    let Geometry {
        in_len,
        out_len,
        state_len,
        inner,
        ..
    } = g;
    if inner == 1 {
        // Contiguous lanes: no gather needed (lane L == outer index o),
        // and each lane's destination range is itself contiguous, so the
        // kernel writes it directly — no staging copy.
        let scratch = &mut bufs.scratch[..bufs.lane_scratch];
        let lanes = src.chunks_exact(in_len).zip(dst.chunks_exact_mut(out_len));
        for (o, (lane_src, lane_dst)) in lanes.enumerate() {
            kernel.apply(lane_src, lane_dst, scratch);
            if state_len > 0 {
                state[o * state_len..(o + 1) * state_len].copy_from_slice(&scratch[..state_len]);
            }
        }
        return;
    }
    // Strided lanes: cache-blocked tiles of up to `bufs.tile` adjacent
    // inner-index lanes. Each axis position `j` is one contiguous
    // `width`-wide read serving every lane of the tile (blocked
    // transpose in), the kernel runs lane-by-lane inside the tile with
    // exactly the per-lane operand order of the untiled walk, and the
    // outputs — and kept states — scatter back through contiguous
    // `width`-wide row slices (blocked transpose out), so bounds are
    // checked once per row. A tile never crosses an outer-block boundary
    // (`width ≤ inner − i`).
    let n_lanes = src.len() / in_len;
    let mut lane = 0;
    while lane < n_lanes {
        let (o, i) = (lane / inner, lane % inner);
        let width = bufs.tile.min(inner - i);
        let src_base = o * in_len * inner + i;
        for j in 0..in_len {
            let row = &src[src_base + j * inner..src_base + j * inner + width];
            for (t, &v) in row.iter().enumerate() {
                bufs.tile_in[t * in_len + j] = v;
            }
        }
        let lanes_in = bufs.tile_in.chunks_exact(in_len);
        let lanes_out = bufs.tile_out.chunks_exact_mut(out_len);
        if state_len > 0 {
            let scratches = bufs.scratch.chunks_exact_mut(bufs.lane_scratch);
            for ((lane_in, lane_out), scratch) in lanes_in.zip(lanes_out).zip(scratches).take(width)
            {
                kernel.apply(lane_in, lane_out, scratch);
            }
        } else {
            for (lane_in, lane_out) in lanes_in.zip(lanes_out).take(width) {
                kernel.apply(lane_in, lane_out, &mut bufs.scratch);
            }
        }
        let dst_base = o * out_len * inner + i;
        for j in 0..out_len {
            let row_base = dst_base + j * inner;
            let row = &mut dst[row_base..row_base + width];
            for (t, slot) in row.iter_mut().enumerate() {
                *slot = bufs.tile_out[t * out_len + j];
            }
        }
        if state_len > 0 {
            let state_base = o * state_len * inner + i;
            for j in 0..state_len {
                let row_base = state_base + j * inner;
                let row = &mut state[row_base..row_base + width];
                for (t, slot) in row.iter_mut().enumerate() {
                    *slot = bufs.scratch[t * bufs.scratch_step + j];
                }
            }
        }
        lane += width;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lanes::map_lanes;

    /// Reverses a lane.
    struct Reverse(usize);

    impl LaneKernel for Reverse {
        fn input_len(&self) -> usize {
            self.0
        }
        fn output_len(&self) -> usize {
            self.0
        }
        fn apply(&self, src: &[f64], dst: &mut [f64], _scratch: &mut [f64]) {
            for (i, &v) in src.iter().enumerate() {
                dst[src.len() - 1 - i] = v;
            }
        }
    }

    /// Sums a lane into a single cell (axis shrink).
    struct SumTo1(usize);

    impl LaneKernel for SumTo1 {
        fn input_len(&self) -> usize {
            self.0
        }
        fn output_len(&self) -> usize {
            1
        }
        fn apply(&self, src: &[f64], dst: &mut [f64], _scratch: &mut [f64]) {
            dst[0] = src.iter().sum();
        }
    }

    /// Repeats the lane twice (axis growth) using scratch.
    struct Duplicate(usize);

    impl LaneKernel for Duplicate {
        fn input_len(&self) -> usize {
            self.0
        }
        fn output_len(&self) -> usize {
            self.0 * 2
        }
        fn scratch_len(&self) -> usize {
            self.0
        }
        fn apply(&self, src: &[f64], dst: &mut [f64], scratch: &mut [f64]) {
            scratch[..src.len()].copy_from_slice(src);
            dst[..src.len()].copy_from_slice(&scratch[..src.len()]);
            dst[src.len()..].copy_from_slice(&scratch[..src.len()]);
        }
    }

    fn sample(dims: &[usize]) -> NdMatrix {
        let n: usize = dims.iter().product();
        NdMatrix::from_vec(
            dims,
            (0..n).map(|i| ((i * 37) % 23) as f64 - 11.0).collect(),
        )
        .unwrap()
    }

    #[test]
    fn single_stage_matches_map_lanes() {
        let m = sample(&[4, 3, 5]);
        let mut exec = LaneExecutor::new();
        for axis in 0..3 {
            let k = Reverse(m.dims()[axis]);
            let got = exec.map_axis(&m, axis, &k).unwrap();
            let want = map_lanes(&m, axis, m.dims()[axis], |s, d| {
                for (i, &v) in s.iter().enumerate() {
                    d[s.len() - 1 - i] = v;
                }
            })
            .unwrap();
            assert_eq!(got, want, "axis {axis}");
        }
    }

    #[test]
    fn pipeline_matches_chained_map_lanes() {
        let m = sample(&[3, 4, 2]);
        let k0 = Duplicate(3);
        let k1 = SumTo1(4);
        let k2 = Reverse(2);
        let mut exec = LaneExecutor::new();
        let got = exec
            .run(
                &m,
                &[
                    AxisStage {
                        axis: 0,
                        kernel: &k0,
                    },
                    AxisStage {
                        axis: 1,
                        kernel: &k1,
                    },
                    AxisStage {
                        axis: 2,
                        kernel: &k2,
                    },
                ],
            )
            .unwrap();
        let s0 = map_lanes(&m, 0, 6, |s, d| {
            d[..3].copy_from_slice(s);
            d[3..].copy_from_slice(s);
        })
        .unwrap();
        let s1 = map_lanes(&s0, 1, 1, |s, d| d[0] = s.iter().sum()).unwrap();
        let want = map_lanes(&s1, 2, 2, |s, d| {
            d[0] = s[1];
            d[1] = s[0];
        })
        .unwrap();
        assert_eq!(got.dims(), &[6, 1, 2]);
        assert_eq!(got, want);
    }

    #[test]
    fn default_matches_new() {
        assert_eq!(
            LaneExecutor::default().tile_lanes(),
            LaneExecutor::new().tile_lanes()
        );
        assert_eq!(LaneExecutor::default().tile_lanes(), DEFAULT_TILE_LANES);
    }

    #[test]
    fn executor_is_reusable_across_shapes() {
        let mut exec = LaneExecutor::new();
        for dims in [vec![8usize], vec![2, 9], vec![3, 3, 3], vec![2, 2]] {
            let m = sample(&dims);
            let k = Reverse(dims[0]);
            let once = exec.map_axis(&m, 0, &k).unwrap();
            let twice = exec.map_axis(&once, 0, &k).unwrap();
            assert_eq!(twice, m, "{dims:?}");
        }
    }

    #[test]
    fn stage_validation_errors() {
        let m = sample(&[2, 3]);
        let mut exec = LaneExecutor::new();
        let bad_axis = Reverse(2);
        assert!(matches!(
            exec.map_axis(&m, 2, &bad_axis).unwrap_err(),
            MatrixError::BadAxis { .. }
        ));
        let wrong_len = Reverse(5);
        assert_eq!(
            exec.map_axis(&m, 0, &wrong_len).unwrap_err(),
            MatrixError::KernelLenMismatch {
                axis: 0,
                axis_len: 2,
                kernel_len: 5
            }
        );
        // The message names the axis, not a whole-matrix cell count.
        let msg = exec.map_axis(&m, 0, &wrong_len).unwrap_err().to_string();
        assert!(msg.contains("axis 0"), "message was: {msg}");
        // A stage after an axis change must match the *new* length.
        let k0 = Duplicate(2);
        let stale = Reverse(3);
        let refreshed = Reverse(3);
        assert!(exec
            .run(
                &m,
                &[
                    AxisStage {
                        axis: 0,
                        kernel: &k0
                    },
                    AxisStage {
                        axis: 0,
                        kernel: &stale
                    }
                ]
            )
            .is_err());
        let ok = exec.run(
            &m,
            &[
                AxisStage {
                    axis: 0,
                    kernel: &k0,
                },
                AxisStage {
                    axis: 1,
                    kernel: &refreshed,
                },
            ],
        );
        assert!(ok.is_ok());
    }

    /// `run_into` checks the output length before any stage runs, sizes
    /// each given state buffer to exactly what its stage keeps (empty for
    /// a stateless kernel), and leaves buffers past the last stage alone.
    #[test]
    fn run_into_sizes_state_buffers_and_checks_the_output() {
        struct Kept(usize);
        impl LaneKernel for Kept {
            fn input_len(&self) -> usize {
                self.0
            }
            fn output_len(&self) -> usize {
                self.0
            }
            fn state_len(&self) -> usize {
                self.0
            }
            fn apply(&self, src: &[f64], dst: &mut [f64], scratch: &mut [f64]) {
                scratch[..src.len()].copy_from_slice(src);
                dst.copy_from_slice(src);
            }
        }
        let m = sample(&[2, 3]);
        let (k0, k1) = (Kept(2), Reverse(3));
        let stages = [
            AxisStage {
                axis: 0,
                kernel: &k0,
            },
            AxisStage {
                axis: 1,
                kernel: &k1,
            },
        ];
        let mut exec = LaneExecutor::new();
        let mut out = vec![0.0; 6];
        assert_eq!(
            exec.run_into(&m, &stages, &mut [], &mut out[..5]),
            Err(MatrixError::DataLenMismatch {
                expected: 6,
                got: 5
            })
        );
        let mut states = vec![vec![f64::NAN; 2], vec![1.0; 4], vec![7.0]];
        exec.run_into(&m, &stages, &mut states, &mut out).unwrap();
        // Axis 0 keeps its lanes; the stateless stage keeps nothing.
        assert_eq!(states, [m.as_slice().to_vec(), vec![], vec![7.0]]);
        assert_eq!(out, exec.run(&m, &stages).unwrap().as_slice());
    }

    #[test]
    fn zero_output_len_is_rejected() {
        struct Empty;
        impl LaneKernel for Empty {
            fn input_len(&self) -> usize {
                2
            }
            fn output_len(&self) -> usize {
                0
            }
            fn apply(&self, _: &[f64], _: &mut [f64], _: &mut [f64]) {}
        }
        let m = sample(&[2, 2]);
        assert!(matches!(
            LaneExecutor::new().map_axis(&m, 0, &Empty).unwrap_err(),
            MatrixError::ZeroDim { .. }
        ));
    }

    #[test]
    fn tile_width_is_configurable_and_clamped() {
        let exec = LaneExecutor::new().with_tile_lanes(64);
        assert_eq!(exec.tile_lanes(), 64);
        // 0 collapses to the per-lane walk, never a zero-width tile.
        assert_eq!(LaneExecutor::new().with_tile_lanes(0).tile_lanes(), 1);
    }

    #[test]
    fn effective_tile_respects_inner_and_budget() {
        // Contiguous stages never gather, so they never tile.
        assert_eq!(effective_tile(16, 1024, 1024, 1), 1);
        // A tile cannot cross an outer-block boundary.
        assert_eq!(effective_tile(16, 8, 8, 5), 5);
        // The cap keeps lane_len × tile within TILE_CELL_BUDGET…
        let long = TILE_CELL_BUDGET / 4;
        assert_eq!(effective_tile(16, long, long, 1 << 20), 4);
        // …degrading to the per-lane walk for absurdly long lanes rather
        // than refusing to run.
        assert_eq!(effective_tile(16, TILE_CELL_BUDGET * 2, 8, 1 << 20), 1);
        // Ordinary shapes pass the request through.
        assert_eq!(effective_tile(16, 1024, 1024, 1024), 16);
    }

    #[test]
    fn tile_widths_are_bitwise_identical() {
        // The whole tiling contract: every width (including widths larger
        // than the lane count and widths that leave ragged boundary
        // tiles) produces bitwise-identical output to the per-lane walk.
        let m = sample(&[7, 9, 5]);
        let mut reference = LaneExecutor::new().with_tile_lanes(1);
        for axis in 0..3 {
            let k = Reverse(m.dims()[axis]);
            let want = reference.map_axis(&m, axis, &k).unwrap();
            for tile in [2, 3, 8, 64, 1 << 20] {
                let mut tiled = LaneExecutor::new().with_tile_lanes(tile);
                let got = tiled.map_axis(&m, axis, &k).unwrap();
                assert_eq!(got.as_slice(), want.as_slice(), "axis {axis} tile {tile}");
            }
        }
    }
}
