//! Equivalence suite for the lane-execution engine.
//!
//! The engine guarantees that (a) a `LaneExecutor` pipeline computes
//! exactly what chained [`map_lanes`] calls compute, (b) the
//! cache-blocked tiled walk is **bit-identical** to the per-lane walk at
//! every tile width, and (c) a state-keeping run (`run_into`) writes the
//! same output as `run` and keeps every lane's kernel state exactly as a
//! per-lane walk would, on every tile width.

use privelet_matrix::{map_lanes, AxisStage, LaneExecutor, LaneKernel, NdMatrix};
use proptest::prelude::*;

/// A deliberately asymmetric kernel: output length differs from input,
/// every output mixes several inputs, and scratch is exercised.
struct Mix {
    in_len: usize,
    out_len: usize,
}

impl LaneKernel for Mix {
    fn input_len(&self) -> usize {
        self.in_len
    }
    fn output_len(&self) -> usize {
        self.out_len
    }
    fn scratch_len(&self) -> usize {
        self.in_len
    }
    fn apply(&self, src: &[f64], dst: &mut [f64], scratch: &mut [f64]) {
        // Prefix sums into scratch, then strided reads with sign flips.
        let mut acc = 0.0;
        for (slot, &v) in scratch.iter_mut().zip(src) {
            acc += v;
            *slot = acc;
        }
        for (j, slot) in dst.iter_mut().enumerate() {
            let k = (j * 7 + 3) % self.in_len;
            *slot = scratch[k] - 0.25 * src[j % self.in_len];
        }
    }
}

fn mix_reference(src: &[f64], dst: &mut [f64]) {
    let n = src.len();
    let mut prefix = vec![0.0; n];
    let mut acc = 0.0;
    for (slot, &v) in prefix.iter_mut().zip(src) {
        acc += v;
        *slot = acc;
    }
    for (j, slot) in dst.iter_mut().enumerate() {
        let k = (j * 7 + 3) % n;
        *slot = prefix[k] - 0.25 * src[j % n];
    }
}

fn big_matrix(dims: &[usize]) -> NdMatrix {
    let n: usize = dims.iter().product();
    NdMatrix::from_vec(
        dims,
        (0..n)
            .map(|i| (((i * 2654435761) % 977) as f64) / 13.0 - 35.0)
            .collect(),
    )
    .unwrap()
}

/// Large shapes covering the contiguous and strided walks.
fn shapes() -> Vec<Vec<usize>> {
    vec![
        vec![1 << 16],       // 1-D, contiguous-lane fast path only
        vec![256, 128],      // axis 0 strided, axis 1 contiguous
        vec![32, 64, 32],    // middle-axis gather
        vec![8, 16, 16, 32], // 4-D
        vec![65536, 2],      // extreme outer count, tiny lanes
        vec![2, 65536],      // two huge contiguous lanes
    ]
}

#[test]
fn serial_executor_matches_map_lanes_on_every_axis() {
    let mut exec = LaneExecutor::new();
    for dims in shapes() {
        let m = big_matrix(&dims);
        for axis in 0..dims.len() {
            let kernel = Mix {
                in_len: dims[axis],
                out_len: dims[axis] + 5,
            };
            let got = exec.map_axis(&m, axis, &kernel).unwrap();
            let want = map_lanes(&m, axis, dims[axis] + 5, mix_reference).unwrap();
            assert_eq!(got, want, "dims {dims:?} axis {axis}");
        }
    }
}

/// The fixed tile-width grid every randomized shape is checked against:
/// the per-lane walk (1), an odd width that never divides power-of-two
/// extents (3), one cache line of f64s (8, the default), a wide tile
/// (64), and a width guaranteed to exceed any shape's lane count here
/// (every tile then clips to `inner` — the boundary path runs on every
/// single tile).
const TILE_GRID: [usize; 5] = [1, 3, 8, 64, 1 << 24];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Tiled == per-lane, bitwise, over random 1–4-dim shapes with
    /// non-power-of-two extents, on every axis, across the tile grid. The
    /// per-lane walk (`tile = 1`) is the reference.
    #[test]
    fn tiled_walk_is_bit_identical_across_shapes_and_widths(
        dims in prop::collection::vec(1usize..=13, 1..=4),
        out_delta in 0usize..=5,
    ) {
        let m = big_matrix(&dims);
        for axis in 0..dims.len() {
            let kernel = Mix { in_len: dims[axis], out_len: dims[axis] + out_delta };
            let mut reference = LaneExecutor::new().with_tile_lanes(1);
            let want = reference.map_axis(&m, axis, &kernel).unwrap();
            for tile in TILE_GRID {
                let mut tiled = LaneExecutor::new().with_tile_lanes(tile);
                let got = tiled.map_axis(&m, axis, &kernel).unwrap();
                prop_assert_eq!(
                    got.as_slice(), want.as_slice(),
                    "dims {:?} axis {} tile {}", dims, axis, tile
                );
            }
        }
    }
}

#[test]
fn tile_boundary_edges_are_bit_identical() {
    // Deterministic boundary cases on top of the proptest: extents that
    // leave a ragged final tile for every grid width (inner = 65 against
    // widths 3/8/64), a stride exactly one tile wide, and a stride one
    // element narrower/wider than the default tile.
    let mut reference = LaneExecutor::new().with_tile_lanes(1);
    for dims in [
        vec![33usize, 65],
        vec![17, 8],
        vec![17, 7],
        vec![17, 9],
        vec![5, 64, 3],
        vec![128, 1],
    ] {
        let m = big_matrix(&dims);
        for axis in 0..dims.len() {
            let kernel = Mix {
                in_len: dims[axis],
                out_len: dims[axis] + 2,
            };
            let want = reference.map_axis(&m, axis, &kernel).unwrap();
            for tile in TILE_GRID {
                let mut tiled = LaneExecutor::new().with_tile_lanes(tile);
                let got = tiled.map_axis(&m, axis, &kernel).unwrap();
                assert_eq!(
                    got.as_slice(),
                    want.as_slice(),
                    "dims {dims:?} axis {axis} tile {tile}"
                );
            }
        }
    }
}

#[test]
fn warm_executor_never_leaks_previous_results() {
    // Run a big pipeline, then a small one whose output region is a strict
    // subset of the dirty buffer; every cell must still be freshly written.
    let mut exec = LaneExecutor::new();
    let big = big_matrix(&[64, 64, 32]);
    let kernel_big = Mix {
        in_len: 64,
        out_len: 64,
    };
    exec.map_axis(&big, 0, &kernel_big).unwrap();

    let small = big_matrix(&[6, 5]);
    let kernel_small = Mix {
        in_len: 6,
        out_len: 4,
    };
    let got = exec.map_axis(&small, 0, &kernel_small).unwrap();
    let want = map_lanes(&small, 0, 4, mix_reference).unwrap();
    assert_eq!(got, want);
}

/// A padding kernel with a kept heap pyramid: zero-pads the lane to the
/// next power of two `m`, folds it pairwise into `scratch[..2m]` (leaves
/// at `m + x`, node `j` from children `2j`, `2j + 1`, slot 0 zero) and
/// emits one mixed value per node — the geometry of a Haar axis.
struct Pyramid {
    in_len: usize,
}

impl LaneKernel for Pyramid {
    fn input_len(&self) -> usize {
        self.in_len
    }
    fn output_len(&self) -> usize {
        self.in_len.next_power_of_two()
    }
    fn scratch_len(&self) -> usize {
        2 * self.output_len()
    }
    fn state_len(&self) -> usize {
        2 * self.output_len()
    }
    fn apply(&self, src: &[f64], dst: &mut [f64], scratch: &mut [f64]) {
        let m = self.output_len();
        scratch[0] = 0.0;
        scratch[m..m + self.in_len].copy_from_slice(src);
        scratch[m + self.in_len..2 * m].fill(0.0);
        for j in (1..m).rev() {
            scratch[j] = 0.75 * scratch[2 * j] + 0.25 * scratch[2 * j + 1] / 3.0;
            dst[j] = scratch[2 * j] - 0.5 * scratch[2 * j + 1];
        }
        dst[0] = scratch[1];
    }
}

/// The identity axis: the lane is its own output and its own state.
struct Copy {
    len: usize,
}

impl LaneKernel for Copy {
    fn input_len(&self) -> usize {
        self.len
    }
    fn output_len(&self) -> usize {
        self.len
    }
    fn state_len(&self) -> usize {
        self.len
    }
    fn apply(&self, src: &[f64], dst: &mut [f64], scratch: &mut [f64]) {
        scratch[..self.len].copy_from_slice(src);
        dst.copy_from_slice(src);
    }
}

/// `Mix` keeping its prefix-sum scratch as state.
struct MixKept(Mix);

impl LaneKernel for MixKept {
    fn input_len(&self) -> usize {
        self.0.input_len()
    }
    fn output_len(&self) -> usize {
        self.0.output_len()
    }
    fn scratch_len(&self) -> usize {
        self.0.scratch_len()
    }
    fn state_len(&self) -> usize {
        self.0.scratch_len()
    }
    fn apply(&self, src: &[f64], dst: &mut [f64], scratch: &mut [f64]) {
        self.0.apply(src, dst, scratch);
    }
}

/// One stateful kernel per axis of `dims`, chosen by `kinds[axis] % 3`:
/// a padding pyramid, an identity axis, or a state-keeping `Mix`.
fn stateful_kernels(dims: &[usize], kinds: &[usize]) -> Vec<Box<dyn LaneKernel>> {
    dims.iter()
        .zip(kinds)
        .map(|(&len, &kind)| -> Box<dyn LaneKernel> {
            match kind % 3 {
                0 => Box::new(Pyramid { in_len: len }),
                1 => Box::new(Copy { len }),
                _ => Box::new(MixKept(Mix {
                    in_len: len,
                    out_len: len + 2,
                })),
            }
        })
        .collect()
}

fn axis_stages(kernels: &[Box<dyn LaneKernel>]) -> Vec<AxisStage<'_>> {
    kernels
        .iter()
        .enumerate()
        .map(|(axis, kernel)| AxisStage {
            axis,
            kernel: kernel.as_ref(),
        })
        .collect()
}

/// The state stage `axis` keeps, computed lane by lane straight from its
/// input matrix: each lane gathered element by element, run through the
/// kernel with fresh scratch, and its leading `state_len` slots placed at
/// `[outer, state_len, inner]`.
fn reference_state(input: &NdMatrix, axis: usize, kernel: &dyn LaneKernel) -> Vec<f64> {
    let dims = input.dims();
    let outer: usize = dims[..axis].iter().product();
    let inner: usize = dims[axis + 1..].iter().product();
    let (n, s) = (dims[axis], kernel.state_len());
    let mut state = vec![0.0; outer * s * inner];
    let mut lane = vec![0.0; n];
    let mut out = vec![0.0; kernel.output_len()];
    for o in 0..outer {
        for i in 0..inner {
            for (j, slot) in lane.iter_mut().enumerate() {
                *slot = input.as_slice()[(o * n + j) * inner + i];
            }
            let mut scratch = vec![0.0; kernel.scratch_len()];
            kernel.apply(&lane, &mut out, &mut scratch);
            for j in 0..s {
                state[(o * s + j) * inner + i] = scratch[j];
            }
        }
    }
    state
}

/// Runs `stages` through `run_into` on `exec`, keeping every stage's
/// state in buffers of the right size; returns `(output, states)`.
fn run_keeping_state(
    exec: &mut LaneExecutor,
    m: &NdMatrix,
    stages: &[AxisStage<'_>],
    state_cells: &[usize],
    out_cells: usize,
) -> (Vec<f64>, Vec<Vec<f64>>) {
    // Poisoned buffers: every cell must be written by the run.
    let mut states: Vec<Vec<f64>> = state_cells.iter().map(|&c| vec![f64::NAN; c]).collect();
    let mut out = vec![f64::NAN; out_cells];
    exec.run_into(m, stages, &mut states, &mut out).unwrap();
    (out, states)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// State capture over random ragged 1–4-dim shapes mixing padding
    /// (Haar-like), identity and state-keeping `Mix` axes: `run_into`'s
    /// output equals `run`'s bitwise, and every stage's kept state equals
    /// the per-lane reference, at tile widths {1, 3, 8, 64}.
    #[test]
    fn kept_state_is_bit_identical_across_widths_and_pool(
        dims in prop::collection::vec(1usize..=13, 1..=4),
        kinds in prop::collection::vec(0usize..3, 4),
    ) {
        let m = big_matrix(&dims);
        let kernels = stateful_kernels(&dims, &kinds);
        let stages = axis_stages(&kernels);
        let plain = LaneExecutor::new().run(&m, &stages).unwrap();

        // Reference states from each stage's own input matrix.
        let mut want_states = Vec::new();
        for (axis, kernel) in kernels.iter().enumerate() {
            let input = LaneExecutor::new().run(&m, &stages[..axis]).unwrap();
            want_states.push(reference_state(&input, axis, kernel.as_ref()));
        }
        let cells: Vec<usize> = want_states.iter().map(Vec::len).collect();

        for tile in [1usize, 3, 8, 64] {
            let mut exec = LaneExecutor::new().with_tile_lanes(tile);
            let (out, states) = run_keeping_state(&mut exec, &m, &stages, &cells, plain.len());
            prop_assert!(
                out.iter().zip(plain.as_slice()).all(|(a, b)| a.to_bits() == b.to_bits()),
                "output, dims {:?} kinds {:?} tile {}", dims, kinds, tile
            );
            for (axis, (got, want)) in states.iter().zip(&want_states).enumerate() {
                prop_assert!(
                    got.iter().zip(want).all(|(a, b)| a.to_bits() == b.to_bits()),
                    "state {}, dims {:?} kinds {:?} tile {}", axis, dims, kinds, tile
                );
            }
        }
    }
}

/// Deterministic large state-capture shapes, with padded (13 → 16,
/// 100 → 128) and identity axes in strided and contiguous positions:
/// every tile width agrees bitwise with the per-lane walk, and the warm
/// reference executor reused across the shapes leaks nothing.
#[test]
fn kept_state_on_large_ragged_shapes_matches_across_paths() {
    let mut reference = LaneExecutor::new().with_tile_lanes(1);
    for (dims, kinds) in [
        (vec![100usize, 13, 17], vec![0usize, 1, 2]),
        (vec![13, 100, 40], vec![1, 0, 0]),
        (vec![300, 77], vec![0, 2]),
    ] {
        let m = big_matrix(&dims);
        let kernels = stateful_kernels(&dims, &kinds);
        let stages = axis_stages(&kernels);
        let mut cells = Vec::new();
        let mut shape = dims.clone();
        for (axis, kernel) in kernels.iter().enumerate() {
            let outer: usize = shape[..axis].iter().product();
            let inner: usize = shape[axis + 1..].iter().product();
            cells.push(outer * kernel.state_len() * inner);
            shape[axis] = kernel.output_len();
        }
        let out_cells: usize = shape.iter().product();
        let want = run_keeping_state(&mut reference, &m, &stages, &cells, out_cells);
        for tile in [3usize, 8, 64] {
            let mut exec = LaneExecutor::new().with_tile_lanes(tile);
            let got = run_keeping_state(&mut exec, &m, &stages, &cells, out_cells);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got.0), bits(&want.0), "dims {dims:?} tile {tile}");
            for (axis, (g, w)) in got.1.iter().zip(&want.1).enumerate() {
                assert_eq!(bits(g), bits(w), "dims {dims:?} state {axis} tile {tile}");
            }
        }
    }
}
