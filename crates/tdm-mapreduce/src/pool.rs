//! Worker pools shared by the CPU executors.
//!
//! Two execution styles live here:
//!
//! * [`map_items`] — a *scoped* parallel map that spawns threads per call
//!   and may borrow its inputs. Right for one-shot jobs.
//! * [`Pool`] — a *persistent* team of worker threads fed through a shared
//!   queue. Jobs are `'static` closures (share data via `Arc`), so the same
//!   threads serve every counting call of a mining session's level loop — no
//!   per-call spawn cost, and per-worker thread-local scratch stays warm
//!   across calls. This is the pool a `MiningSession` owns for its lifetime.
//!
//! A `Pool` is `Sync`: every method takes `&self`, so one pool wrapped in an
//! [`Arc`] can be shared by any number of concurrent sessions (the
//! `tdm-serve` service runs all of its clients over a single machine-sized
//! pool this way). Jobs start in the order they were queued: the pool never
//! reorders work by who asked for it.
//!
//! ```
//! use std::sync::Arc;
//! use tdm_mapreduce::pool::Pool;
//!
//! // Spawn once, share everywhere: Pool is Sync, so clones of the Arc can
//! // dispatch from any thread.
//! let pool = Arc::new(Pool::with_workers(4));
//! let doubled = pool.map_move(vec![1u32, 2, 3], |x| x * 2);
//! assert_eq!(doubled, vec![2, 4, 6]);
//!
//! // The same threads serve the next call — nothing is respawned.
//! let sums = pool.map_move(vec![0..10u32, 10..20], |r| r.sum::<u32>());
//! assert_eq!(sums, vec![45, 145]);
//! ```

use std::collections::VecDeque;
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// A queued unit of work for a [`Pool`] worker.
type Job = Box<dyn FnOnce() + Send + 'static>;

struct PoolState {
    jobs: VecDeque<Job>,
    shutdown: bool,
}

struct PoolShared {
    state: Mutex<PoolState>,
    available: Condvar,
}

/// A persistent worker pool: `n` threads spawned once, fed through a shared
/// FIFO queue, joined on drop.
///
/// Unlike [`map_items`], jobs must be `'static` — callers share read-only
/// inputs via [`Arc`] and receive results over channels ([`Pool::map_move`]
/// wraps that pattern). The payoff is that the threads — and anything they
/// cache in thread-local storage — persist across calls, which is what the
/// level-wise miner wants: one pool for the whole level loop instead of a
/// spawn per counting call.
pub struct Pool {
    shared: Arc<PoolShared>,
    handles: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for Pool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pool")
            .field("workers", &self.handles.len())
            .finish()
    }
}

impl Pool {
    /// Spawns a pool of `n` workers (0 is clamped to 1).
    pub fn with_workers(n: usize) -> Pool {
        let n = n.max(1);
        let shared = Arc::new(PoolShared {
            state: Mutex::new(PoolState {
                jobs: VecDeque::new(),
                shutdown: false,
            }),
            available: Condvar::new(),
        });
        let handles = (0..n)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("tdm-pool-{i}"))
                    .spawn(move || loop {
                        let job = {
                            let mut st = shared.state.lock().expect("pool state");
                            loop {
                                if let Some(job) = st.jobs.pop_front() {
                                    break job;
                                }
                                if st.shutdown {
                                    return;
                                }
                                st = shared.available.wait(st).expect("pool state");
                            }
                        };
                        // A panicking job must not kill the worker: later jobs
                        // would sit in the queue forever and a blocked
                        // `map_move` would deadlock. The unwind drops the job's
                        // reply sender, so the caller observes the failure as
                        // a missing result instead of a hang.
                        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(job));
                    })
                    .expect("spawn pool worker")
            })
            .collect();
        Pool { shared, handles }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.handles.len()
    }

    /// Enqueues one job at the back of the queue; returns immediately.
    fn execute(&self, job: impl FnOnce() + Send + 'static) {
        let mut st = self.shared.state.lock().expect("pool state");
        st.jobs.push_back(Box::new(job));
        drop(st);
        self.shared.available.notify_one();
    }

    /// Applies `f` to every input on the pool and returns the results in input
    /// order, blocking until all are done. Inputs are moved into the jobs;
    /// share big read-only data through `Arc` captures inside `f`.
    ///
    /// A single input is run inline on the caller's thread (no queue round
    /// trip).
    pub fn map_move<T, R, F>(&self, inputs: Vec<T>, f: F) -> Vec<R>
    where
        T: Send + 'static,
        R: Send + 'static,
        F: Fn(T) -> R + Send + Sync + 'static,
    {
        let n = inputs.len();
        if n == 0 {
            return Vec::new();
        }
        if n == 1 {
            let mut inputs = inputs;
            return vec![f(inputs.pop().expect("one input"))];
        }
        let f = Arc::new(f);
        let (tx, rx) = mpsc::channel::<(usize, R)>();
        for (i, input) in inputs.into_iter().enumerate() {
            let f = Arc::clone(&f);
            let tx = tx.clone();
            self.execute(move || {
                let r = f(input);
                // Release this job's handle on `f` (and any Arc data it
                // captured) *before* signalling completion, so that once the
                // caller has every result — and drops its own `f` below — no
                // worker still holds shared data. Sessions rely on this:
                // `Arc::make_mut` on the compiled candidates must find a
                // refcount of 1 at the next level's recompile.
                drop(f);
                let _ = tx.send((i, r));
            });
        }
        drop(tx);
        let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
        for (i, r) in rx {
            slots[i] = Some(r);
        }
        drop(f); // last handle: `f`'s captures die here, on the caller's thread
        slots
            .into_iter()
            .map(|s| s.expect("pool worker dropped a job (panicked?)"))
            .collect()
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        self.shared.state.lock().expect("pool state").shutdown = true;
        self.shared.available.notify_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// A parallel map over individual items, preserving order: `items` is cut
/// into one contiguous chunk per worker, each mapped on its own scoped
/// thread. With one worker (or one chunk) this degrades to a sequential loop
/// with identical results.
pub fn map_items<T, R, F>(items: &[T], workers: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let chunk = items.len().div_ceil(workers.max(1)).max(1);
    if chunk >= items.len() {
        return items.iter().map(f).collect();
    }
    let f = &f;
    std::thread::scope(|s| {
        let handles: Vec<_> = items
            .chunks(chunk)
            .map(|c| s.spawn(move || c.iter().map(f).collect::<Vec<R>>()))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("pool worker panicked"))
            .collect()
    })
}

/// Default worker count: available parallelism, at least 1.
pub fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn item_map_matches_sequential() {
        let data: Vec<u32> = (0..57).collect();
        for workers in [1, 2, 3, 16] {
            let out = map_items(&data, workers, |x| x * 2);
            let expect: Vec<u32> = data.iter().map(|x| x * 2).collect();
            assert_eq!(out, expect, "workers={workers}");
        }
    }

    #[test]
    fn empty_and_tiny_inputs() {
        assert!(map_items::<u32, u32, _>(&[], 4, |x| *x).is_empty());
        assert_eq!(map_items(&[7u32], 8, |x| x + 1), vec![8]);
    }

    #[test]
    fn workers_floor_at_one() {
        let out = map_items(&[1u32, 2, 3], 0, |x| x * 3);
        assert_eq!(out, vec![3, 6, 9]);
        assert!(default_workers() >= 1);
    }

    #[test]
    fn pool_map_preserves_order_and_is_reusable() {
        let pool = Pool::with_workers(4);
        assert_eq!(pool.workers(), 4);
        for round in 0..3u32 {
            let data: Vec<u32> = (0..57).collect();
            let out = pool.map_move(data, move |x| x * 2 + round);
            let expect: Vec<u32> = (0..57).map(|x| x * 2 + round).collect();
            assert_eq!(out, expect, "round {round}");
        }
    }

    #[test]
    fn pool_shares_data_through_arcs() {
        use std::sync::Arc;
        let pool = Pool::with_workers(3);
        let big: Arc<Vec<u64>> = Arc::new((0..10_000).collect());
        let ranges: Vec<std::ops::Range<usize>> = vec![0..2_500, 2_500..5_000, 5_000..10_000];
        let shared = Arc::clone(&big);
        let sums = pool.map_move(ranges, move |r| shared[r].iter().sum::<u64>());
        assert_eq!(sums.iter().sum::<u64>(), big.iter().sum::<u64>());
    }

    #[test]
    fn pool_execute_runs_detached_jobs() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;
        let pool = Pool::with_workers(2);
        let hits = Arc::new(AtomicUsize::new(0));
        for _ in 0..10 {
            let hits = Arc::clone(&hits);
            pool.execute(move || {
                hits.fetch_add(1, Ordering::SeqCst);
            });
        }
        drop(pool); // drop joins the workers, so all jobs have run
        assert_eq!(hits.load(Ordering::SeqCst), 10);
    }

    #[test]
    fn panicking_job_fails_the_map_without_hanging_the_pool() {
        let pool = Pool::with_workers(1);
        // One of three jobs panics on the single worker: map_move must report
        // the failure (missing result) rather than deadlock on the queue.
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.map_move(vec![0u32, 1, 2], |x| {
                assert!(x != 1, "boom");
                x
            })
        }));
        assert!(outcome.is_err(), "map with a panicking job must fail");
        // The worker survived; the pool keeps serving jobs.
        assert_eq!(pool.map_move(vec![10u32, 20], |x| x + 1), vec![11, 21]);
    }

    #[test]
    fn pool_empty_and_single_inputs() {
        let pool = Pool::with_workers(0); // clamped to 1
        assert_eq!(pool.workers(), 1);
        assert!(pool.map_move(Vec::<u32>::new(), |x| x).is_empty());
        assert_eq!(pool.map_move(vec![7u32], |x| x + 1), vec![8]);
    }

    #[test]
    fn pool_threads_persist_across_calls() {
        // Thread-local state survives between map_move calls: the whole point
        // of a persistent pool over scoped spawning.
        thread_local! {
            static CALLS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
        }
        let pool = Pool::with_workers(1);
        let bump = |_: u32| {
            CALLS.with(|c| {
                c.set(c.get() + 1);
                c.get()
            })
        };
        // (Single-element calls run inline on the caller, so use two inputs.)
        let a = pool.map_move(vec![0u32, 0], bump);
        let b = pool.map_move(vec![0u32, 0], bump);
        assert_eq!(a, vec![1, 2]);
        assert_eq!(b, vec![3, 4]);
    }
}
