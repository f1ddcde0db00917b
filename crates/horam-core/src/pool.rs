//! The worker pool behind H-ORAM's two levels of wall-clock parallelism.
//!
//! The simulated-time machinery made H-ORAM fast on the *simulated*
//! device timeline; [`WorkerPool`] spreads the real CPU work of the
//! design's independent units across host threads:
//!
//! * [`ShardedOram`](crate::shard::ShardedOram) runs its busy shards'
//!   cycle windows on it (shards are fully independent instances);
//! * [`StorageLayer`](crate::storage_layer::StorageLayer) runs each
//!   rebuild pass's per-slot crypto on it, one contiguous chunk of slots
//!   per thread.
//!
//! # Design
//!
//! The pool has one entry point, [`fork_join`](WorkerPool::fork_join):
//! run `f(i, &mut items[i])` for every item, return the results in index
//! order. Behind it sit `width − 1` persistent worker threads and a FIFO
//! job queue behind a mutex/condvar pair (no external dependencies). A
//! call queues one job per helping worker, and every executor — the
//! caller included — claims items one at a time until none is left. The
//! call returns only after every helper job has finished (a barrier), so
//! the borrowed items and closure can never dangle. A panicking item is
//! caught where it runs and re-raised on the caller after the barrier;
//! the workers survive it, so the pool stays usable.
//!
//! The workers persist across calls because a pump round is short: a
//! fresh `std::thread::scope` per round measured 0.94× `serve_zipf`
//! throughput and a larger peak RSS (`docs/ARCHITECTURE.md` §8).
//!
//! Determinism is unaffected: items are disjoint, and the results are
//! merged on the caller in index order. The pool decides *when* work
//! runs, never *what* it computes — at width 1, or for fewer than two
//! items, `fork_join` is a plain loop on the caller.

use std::collections::VecDeque;
use std::fmt;
use std::iter::{Enumerate, Rev};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::{self, JoinHandle};

/// A type-erased helper job. Jobs never unwind: every item runs under
/// `catch_unwind`.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// State shared between the pool handle and its worker threads.
struct Shared {
    /// FIFO job queue: calls push, workers (and waiting callers) pop.
    queue: Mutex<VecDeque<Job>>,
    /// Signalled when a job is pushed or shutdown begins.
    available: Condvar,
    /// Set once by [`WorkerPool::drop`]; workers exit when the queue is
    /// empty and this is set.
    shutdown: AtomicBool,
}

/// Locks `mutex`, ignoring poison: no critical section here can panic
/// half-way through an update.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|e| e.into_inner())
}

/// One [`WorkerPool::fork_join`] call, shared by every executor.
struct Call<'a, T, R, F> {
    /// Unclaimed items, handed out from the last one down.
    todo: Mutex<Rev<Enumerate<std::slice::IterMut<'a, T>>>>,
    /// Finished items with their index, in completion order.
    done: Mutex<Vec<(usize, thread::Result<R>)>>,
    f: &'a F,
    /// Helper jobs queued and not yet finished.
    helpers: Mutex<usize>,
    /// Signalled by the helper that drops [`helpers`](Self::helpers) to 0.
    helped: Condvar,
}

impl<T, R, F: Fn(usize, &mut T) -> R> Call<'_, T, R, F> {
    /// Claims and runs items until none is left.
    fn run(&self) {
        loop {
            let Some((i, item)) = lock(&self.todo).next() else {
                return;
            };
            let result = catch_unwind(AssertUnwindSafe(|| (self.f)(i, item)));
            lock(&self.done).push((i, result));
        }
    }

    /// A helper job's last act: count itself out.
    fn finish_helper(&self) {
        let mut helpers = lock(&self.helpers);
        *helpers -= 1;
        if *helpers == 0 {
            self.helped.notify_all();
        }
    }
}

/// A fixed-width pool of persistent worker threads with one ordered
/// fork-join call. See the [module docs](self).
pub(crate) struct WorkerPool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WorkerPool")
            .field("width", &self.width())
            .finish()
    }
}

impl WorkerPool {
    /// Creates a pool `width` executors wide: `width − 1` worker threads
    /// plus the caller of [`fork_join`](Self::fork_join). Width 1 spawns
    /// no thread. Engines size it with
    /// [`HOramConfig::worker_width`](crate::config::HOramConfig::worker_width).
    pub(crate) fn new(width: usize) -> Self {
        let shared = Arc::new(Shared {
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            shutdown: AtomicBool::new(false),
        });
        let workers = (1..width)
            .map(|i| {
                let shared = Arc::clone(&shared);
                thread::Builder::new()
                    .name(format!("horam-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawns worker thread")
            })
            .collect();
        Self { shared, workers }
    }

    /// The executors a call runs on: the workers and the caller.
    pub(crate) fn width(&self) -> usize {
        self.workers.len() + 1
    }

    /// Runs `f(i, &mut items[i])` for every item across the pool, the
    /// calling thread included, and returns the results in index order.
    ///
    /// # Panics
    ///
    /// If any item panics, the lowest-indexed panic is re-raised here
    /// after every item has finished.
    pub(crate) fn fork_join<T, R, F>(&self, items: &mut [T], f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(usize, &mut T) -> R + Sync,
    {
        if self.workers.is_empty() || items.len() < 2 {
            return items
                .iter_mut()
                .enumerate()
                .map(|(i, item)| f(i, item))
                .collect();
        }
        let helpers = self.workers.len().min(items.len() - 1);
        let count = items.len();
        // Claims run from the last item down: on one executor the
        // completion order is the reverse of index order, so only the
        // sort below can make results ordered.
        let call = Call {
            todo: Mutex::new(items.iter_mut().enumerate().rev()),
            done: Mutex::new(Vec::with_capacity(count)),
            f: &f,
            helpers: Mutex::new(helpers),
            helped: Condvar::new(),
        };
        for _ in 0..helpers {
            let call = &call;
            let job: Box<dyn FnOnce() + Send + '_> = Box::new(move || {
                call.run();
                call.finish_helper();
            });
            // SAFETY: the job borrows `call` (and through it `items` and
            // `f`). This function does not return or unwind until
            // `call.helpers` reaches zero, i.e. until every helper job has
            // run to completion: `run` catches every item's panic, and the
            // wait below cannot panic. Queued jobs are never dropped
            // unrun: shutdown happens only in `WorkerPool::drop`, which
            // cannot run while `&self` is borrowed here.
            let job: Job = unsafe { std::mem::transmute(job) };
            lock(&self.shared.queue).push_back(job);
            self.shared.available.notify_one();
        }
        call.run();
        self.wait_for_helpers(&call);

        let mut done = call.done.into_inner().unwrap_or_else(|e| e.into_inner());
        done.sort_unstable_by_key(|&(i, _)| i);
        done.into_iter()
            .map(|(_, result)| result.unwrap_or_else(|payload| resume_unwind(payload)))
            .collect()
    }

    /// Blocks until every helper job of `call` has finished. A job still
    /// queued is run here rather than waited for: every item is claimed
    /// by now, so it only counts itself out.
    fn wait_for_helpers<T, R, F: Fn(usize, &mut T) -> R>(&self, call: &Call<'_, T, R, F>) {
        loop {
            if *lock(&call.helpers) == 0 {
                return;
            }
            let queued = lock(&self.shared.queue).pop_front();
            match queued {
                Some(job) => job(),
                None => {
                    // The count is re-checked under its lock, which the
                    // last helper takes before notifying: no lost wakeup.
                    let helpers = lock(&call.helpers);
                    if *helpers != 0 {
                        drop(call.helped.wait(helpers).unwrap_or_else(|e| e.into_inner()));
                    }
                }
            }
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.available.notify_all();
        for worker in self.workers.drain(..) {
            // Workers never unwind (items are caught), so join only fails
            // if a worker was killed externally; nothing to clean up then.
            let _ = worker.join();
        }
    }
}

/// Body of each worker thread: pop jobs until shutdown.
fn worker_loop(shared: &Shared) {
    loop {
        let job = {
            let mut queue = lock(&shared.queue);
            loop {
                if let Some(job) = queue.pop_front() {
                    break Some(job);
                }
                if shared.shutdown.load(Ordering::Acquire) {
                    break None;
                }
                queue = shared
                    .available
                    .wait(queue)
                    .unwrap_or_else(|e| e.into_inner());
            }
        };
        match job {
            Some(job) => job(),
            None => return,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn results_come_back_in_index_order() {
        for width in [1, 2, 4] {
            let pool = WorkerPool::new(width);
            let mut items: Vec<u64> = (0..64).collect();
            let out = pool.fork_join(&mut items, |i, item| {
                *item += 1;
                (i as u64) * 2
            });
            assert_eq!(out, (0..64).map(|i| i * 2).collect::<Vec<u64>>());
            assert_eq!(items, (1..=64).collect::<Vec<u64>>(), "width {width}");
        }
    }

    #[test]
    fn every_item_runs_once_and_the_pool_is_reused() {
        let pool = WorkerPool::new(3);
        let counter = AtomicU64::new(0);
        for round in 1..=20u64 {
            let mut items = vec![0u64; 7];
            pool.fork_join(&mut items, |_, item| {
                counter.fetch_add(1, Ordering::Relaxed);
                *item = round;
            });
            assert_eq!(items, vec![round; 7]);
        }
        assert_eq!(counter.load(Ordering::Relaxed), 140);
    }

    #[test]
    fn width_one_spawns_no_thread() {
        let pool = WorkerPool::new(1);
        assert_eq!(pool.width(), 1);
        let caller = thread::current().id();
        let ran_on = pool.fork_join(&mut [(); 4], |_, _| thread::current().id());
        assert!(ran_on.iter().all(|id| *id == caller));
    }

    /// A panicking item surfaces as a panic on the caller — after every
    /// sibling finished, never as a deadlock — and the pool keeps serving
    /// the next call, as the shard pump needs after a failed round.
    #[test]
    fn panicking_item_propagates_and_does_not_deadlock() {
        let pool = WorkerPool::new(4);
        let finished = AtomicU64::new(0);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            pool.fork_join(&mut [0u32; 32], |i, _| {
                if i == 13 {
                    panic!("shard task exploded");
                }
                finished.fetch_add(1, Ordering::Relaxed);
            })
        }));
        let payload = caught.expect_err("panic must propagate to the caller");
        let message = payload
            .downcast_ref::<&str>()
            .copied()
            .unwrap_or("<non-str payload>");
        assert!(message.contains("shard task exploded"));
        assert_eq!(
            finished.load(Ordering::Relaxed),
            31,
            "the barrier ran the rest"
        );

        let mut round = vec![0u32; 16];
        pool.fork_join(&mut round, |i, slot| *slot = i as u32 + 1);
        assert_eq!(round, (1..=16).collect::<Vec<u32>>());
    }

    #[test]
    fn empty_and_single_item_calls_run_on_the_caller() {
        let pool = WorkerPool::new(2);
        let none: Vec<u8> = pool.fork_join(&mut [] as &mut [u8], |_, _| 1);
        assert!(none.is_empty());
        let caller = thread::current().id();
        assert_eq!(
            pool.fork_join(&mut [7u8], |_, _| thread::current().id()),
            vec![caller]
        );
    }
}
