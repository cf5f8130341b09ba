//! A persistent worker pool for lane-stage execution.
//!
//! The `parallel` feature's original implementation spawned fresh
//! `std::thread::scope` threads for **every stage** of every pipeline —
//! a d-stage transform on a d-dimensional matrix paid d spawn/join
//! rounds per call, and a publish runs several such pipelines. A
//! [`WorkerPool`] spawns its threads once and feeds them stage chunks
//! through per-worker channels, so the steady-state cost of fanning a
//! stage out is a handful of channel sends, not thread creation.
//!
//! Determinism contract: a stage's lane range is split into contiguous
//! chunks — `chunk = n_lanes.div_ceil(workers)`, rounded up to a
//! multiple of the stage's tile width so the cache-blocked tile is the
//! pool's chunk unit (no worker starts mid-tile), worker `w` owning
//! `[w·chunk, min((w+1)·chunk, n_lanes))` — and each chunk is processed
//! by exactly one thread with its own scratch buffers. Lanes write
//! disjoint outputs (and kept states) and per-lane arithmetic is
//! identical to the serial path, so pooled output is **bit-identical**
//! to serial regardless of which thread runs which chunk or how wide the
//! tiles are (the equivalence suite asserts this).
//!
//! Chunk 0 always runs on the dispatching thread: a pool of `N` workers
//! therefore serves stages of up to `N + 1`-way parallelism, and a
//! 1-thread executor never touches the pool at all.
//!
//! Lifecycle: jobs carry lifetime-erased pointers into the dispatcher's
//! borrows, which is sound because [`dispatch`](WorkerPool::dispatch)
//! blocks until every chunk completion has been collected before
//! returning. A kernel panic inside a worker is caught
//! ([`std::panic::catch_unwind`]), reported through the completion
//! channel, and surfaces as [`MatrixError::WorkerPanicked`] — never a
//! hang, and the pool stays usable. Dropping the pool closes the job
//! channels and joins every worker.

use crate::executor::{process_lanes, Geometry, LaneKernel, WorkerBufs};
use crate::{MatrixError, Result};
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::thread::JoinHandle;

/// One stage chunk, lifetime-erased for the trip through a channel.
///
/// The raw pointers alias the dispatcher's `src`/`dst`/`state`/`kernel`
/// borrows; they are valid for the whole job because `dispatch` does not
/// return (and so the borrows cannot end) until the worker has reported
/// completion.
struct Task {
    src: *const f64,
    src_len: usize,
    dst: *mut f64,
    state: *mut f64,
    kernel: *const dyn LaneKernel,
    geometry: Geometry,
    lanes: Range<usize>,
}

// SAFETY: the pointers (source, output, state, kernel) are only
// dereferenced while the dispatcher blocks on the matching completion,
// keeping the underlying borrows alive; lane ranges across concurrent
// tasks are disjoint (see `dispatch_stage`). `geometry` and `lanes` are
// plain values.
unsafe impl Send for Task {}

struct Job {
    task: Task,
    /// `true` = the kernel panicked while running this chunk.
    done: mpsc::Sender<bool>,
}

struct Worker {
    jobs: Option<mpsc::Sender<Job>>,
    handle: Option<JoinHandle<()>>,
}

/// A fixed set of persistent worker threads executing lane-stage chunks.
/// See the [module docs](self) for the determinism and lifecycle
/// contracts.
#[derive(Debug)]
pub struct WorkerPool {
    workers: Vec<Worker>,
}

impl std::fmt::Debug for Worker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Worker")
            .field("alive", &self.handle.is_some())
            .finish()
    }
}

impl WorkerPool {
    /// Spawns a pool of `workers` persistent threads (0 is a valid,
    /// empty pool: every dispatch then runs entirely on the caller).
    pub fn new(workers: usize) -> WorkerPool {
        let workers = (0..workers)
            .map(|i| {
                let (tx, rx) = mpsc::channel::<Job>();
                let handle = std::thread::Builder::new()
                    .name(format!("privelet-pool-{i}"))
                    .spawn(move || worker_loop(rx))
                    .expect("spawn pool worker thread");
                Worker {
                    jobs: Some(tx),
                    handle: Some(handle),
                }
            })
            .collect();
        WorkerPool { workers }
    }

    /// Number of worker threads (the dispatching thread comes on top:
    /// a stage dispatched at `workers() + 1`-way parallelism saturates
    /// the pool).
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Runs one lane stage across the pool: `src` is `[outer, in_len,
    /// inner]` row-major, `dst` is `[outer, out_len, inner]`, and the
    /// flat lane range is split into `threads.min(n_lanes)` contiguous
    /// chunks (capped at `workers() + 1`); chunk 0 runs on the calling
    /// thread, the rest on the pool.
    ///
    /// Returns [`MatrixError::WorkerPanicked`] if the kernel panicked on
    /// any chunk — including chunk 0, whose panic is caught so the
    /// already-dispatched workers are never left writing through
    /// pointers into unwound stack frames. The pool remains usable
    /// afterwards.
    ///
    /// Errors with [`MatrixError::DataLenMismatch`] when the slice
    /// lengths are inconsistent with the `[outer, len, inner]` layout.
    #[allow(clippy::too_many_arguments)] // mirrors the lane-stage signature 1:1
    pub fn dispatch(
        &self,
        src: &[f64],
        dst: &mut [f64],
        kernel: &dyn LaneKernel,
        in_len: usize,
        out_len: usize,
        inner: usize,
        tile: usize,
        threads: usize,
    ) -> Result<()> {
        let geometry = Geometry {
            in_len,
            out_len,
            state_len: 0,
            inner,
            tile,
        };
        self.dispatch_stage(src, dst, &mut [], kernel, geometry, threads)
    }

    /// [`dispatch`](Self::dispatch) for a stage that may keep state:
    /// `state` is `[outer, g.state_len, inner]` (empty when
    /// `g.state_len == 0`) and receives every lane's kept scratch through
    /// the same chunks and tiles as `dst`.
    pub(crate) fn dispatch_stage(
        &self,
        src: &[f64],
        dst: &mut [f64],
        state: &mut [f64],
        kernel: &dyn LaneKernel,
        g: Geometry,
        threads: usize,
    ) -> Result<()> {
        let lane_cells = g.in_len.checked_mul(g.inner).ok_or(MatrixError::TooLarge)?;
        if lane_cells == 0 || !src.len().is_multiple_of(lane_cells) {
            return Err(MatrixError::DataLenMismatch {
                expected: lane_cells,
                got: src.len(),
            });
        }
        let outer = src.len() / lane_cells;
        let n_lanes = outer * g.inner;
        for (len, buf) in [(g.out_len, dst.len()), (g.state_len, state.len())] {
            let expected = n_lanes.checked_mul(len).ok_or(MatrixError::TooLarge)?;
            if buf != expected {
                return Err(MatrixError::DataLenMismatch { expected, got: buf });
            }
        }
        if n_lanes == 0 {
            return Ok(());
        }

        // The scoped implementation's split, capped by pool size, with
        // the chunk rounded up to a whole number of tiles so the
        // cache-blocked tile is the chunk unit: no worker starts
        // mid-tile, so the tiling inside each chunk is exactly the
        // serial tiling of that lane range.
        let tile = g.tile.max(1);
        let workers = threads.clamp(1, n_lanes).min(self.workers.len() + 1);
        let chunk = n_lanes
            .div_ceil(workers)
            .checked_next_multiple_of(tile)
            .unwrap_or(n_lanes);
        let (dst, state) = (dst.as_mut_ptr(), state.as_mut_ptr());

        let (done_tx, done_rx) = mpsc::channel::<bool>();
        let mut sent = 0usize;
        let mut send_failed = false;
        for w in 1..workers {
            let lane_lo = w * chunk;
            let lane_hi = ((w + 1) * chunk).min(n_lanes);
            if lane_lo >= lane_hi {
                continue;
            }
            let job = Job {
                task: Task {
                    src: src.as_ptr(),
                    src_len: src.len(),
                    dst,
                    state,
                    // Erase the kernel borrow's lifetime for the channel
                    // trip; the completion collection below keeps the
                    // borrow alive for the job's whole execution.
                    // SAFETY: the transmute only changes the trait-object
                    // lifetime bound; the pointer is dereferenced
                    // exclusively while `dispatch` blocks on completions.
                    kernel: unsafe {
                        std::mem::transmute::<
                            *const (dyn LaneKernel + '_),
                            *const (dyn LaneKernel + 'static),
                        >(kernel as *const dyn LaneKernel)
                    },
                    geometry: g,
                    lanes: lane_lo..lane_hi,
                },
                done: done_tx.clone(),
            };
            match self.workers[w - 1]
                .jobs
                .as_ref()
                .expect("pool is live")
                .send(job)
            {
                Ok(()) => sent += 1,
                // The worker is gone (it can only have died outside
                // `catch_unwind`, which is effectively unreachable);
                // dispatch the remaining chunks nowhere and report.
                Err(_) => {
                    send_failed = true;
                    break;
                }
            }
        }
        drop(done_tx);

        // Chunk 0 on the calling thread, panic-guarded: unwinding past
        // this frame while workers still hold pointers into `src`/`dst`
        // would be unsound, so collect every completion first and only
        // then report the panic as an error.
        let local = catch_unwind(AssertUnwindSafe(|| {
            let mut bufs = WorkerBufs::new(kernel, g);
            // SAFETY: chunk 0's lane range is disjoint from every
            // dispatched chunk, and `dst`/`state` are sized above.
            unsafe { process_lanes(src, dst, state, kernel, g, 0..chunk.min(n_lanes), &mut bufs) };
        }));
        let mut panicked = local.is_err();
        for _ in 0..sent {
            match done_rx.recv() {
                Ok(worker_panicked) => panicked |= worker_panicked,
                // A sender dropped without reporting: the worker died
                // mid-job. Nothing more will arrive.
                Err(_) => {
                    panicked = true;
                    break;
                }
            }
        }
        if panicked || send_failed {
            return Err(MatrixError::WorkerPanicked);
        }
        Ok(())
    }
}

impl Drop for WorkerPool {
    /// Closes every job channel and joins every worker, so no pool
    /// thread outlives the pool. A worker that panicked outside
    /// `catch_unwind` (unreachable in practice) is reaped, not
    /// re-panicked.
    fn drop(&mut self) {
        for w in &mut self.workers {
            w.jobs = None;
        }
        for w in &mut self.workers {
            if let Some(handle) = w.handle.take() {
                let _ = handle.join();
            }
        }
    }
}

/// The worker body: drain jobs until the pool drops the channel. Kernel
/// panics are contained per job and reported through the completion
/// channel; a completion is sent for **every** received job, which is
/// what lets `dispatch` block on exactly `sent` receives without
/// risking a hang.
fn worker_loop(rx: mpsc::Receiver<Job>) {
    while let Ok(job) = rx.recv() {
        let panicked = catch_unwind(AssertUnwindSafe(|| {
            let t = &job.task;
            // SAFETY: the dispatcher keeps the `src`/`dst`/`state`/
            // `kernel` borrows alive until this job's completion is
            // received, the task's lane range is disjoint from all
            // concurrent tasks, and `dst`/`state` cover every lane's
            // output and state ranges.
            unsafe {
                let src = std::slice::from_raw_parts(t.src, t.src_len);
                let kernel = &*t.kernel;
                let mut bufs = WorkerBufs::new(kernel, t.geometry);
                process_lanes(
                    src,
                    t.dst,
                    t.state,
                    kernel,
                    t.geometry,
                    t.lanes.clone(),
                    &mut bufs,
                );
            }
        }))
        .is_err();
        let _ = job.done.send(panicked);
    }
}
