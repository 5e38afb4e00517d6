//! Fair FIFO admission with an in-flight limit and two priority classes.
//!
//! A mining request costs a level loop of pool-wide scans, so admitting every
//! arriving client at once just convoys them on the shared worker pool and
//! inflates everyone's latency. The service instead bounds how many requests
//! *mine* concurrently: arrivals take a ticket and block until admitted.
//! Admission order is strict FIFO within a priority class, and
//! [`Priority::High`] tickets are admitted before waiting
//! [`Priority::Normal`] ones, so interactive traffic overtakes bulk traffic
//! here as it does on the pool. A bounded waiting room
//! ([`AdmissionQueue::new`]'s `max_pending`) converts overload into an
//! immediate, explicit rejection instead of an unbounded queue.
//!
//! ## Aging (starvation control)
//!
//! Strict high-before-normal would let a continuous High stream starve a
//! queued Normal request forever. Waiting tickets therefore sit in a
//! [`PriorityLanes`], the type the shared pool queues its jobs in, which
//! **ages** the normal lane: after
//! [`DEFAULT_LANE_AGING`](tdm_mapreduce::pool::DEFAULT_LANE_AGING) (8)
//! consecutive High admissions while a Normal request was waiting, the next
//! admission goes to the oldest Normal ticket (and the streak resets). High
//! traffic still overtakes — it just can't monopolize: a waiting Normal
//! request is admitted after at most 8 High admissions, however long the
//! High stream runs.

use std::sync::{Condvar, Mutex};
use tdm_mapreduce::pool::{Priority, PriorityLanes};

/// The admission queue refused to enqueue a request: the waiting room is
/// already at `max_pending`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Overloaded {
    /// Requests waiting when the rejection happened.
    pub pending: usize,
    /// The configured waiting-room bound.
    pub limit: usize,
}

struct AdmitState {
    next_ticket: u64,
    in_flight: usize,
    /// Waiting tickets; the one [`PriorityLanes::peek`] returns is admitted
    /// next.
    waiting: PriorityLanes<u64>,
}

/// A blocking, priority-aware, fair-FIFO admission gate with normal-lane
/// aging. See the [module docs](self).
pub struct AdmissionQueue {
    max_in_flight: usize,
    max_pending: usize,
    state: Mutex<AdmitState>,
    admitted: Condvar,
}

impl std::fmt::Debug for AdmissionQueue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = self.state.lock().expect("admission state");
        f.debug_struct("AdmissionQueue")
            .field("max_in_flight", &self.max_in_flight)
            .field("in_flight", &st.in_flight)
            .field("pending", &st.waiting.len())
            .finish()
    }
}

/// Proof of admission: holds one in-flight slot, released on drop.
#[must_use = "dropping the permit immediately releases the in-flight slot"]
#[derive(Debug)]
pub struct Permit<'a> {
    queue: &'a AdmissionQueue,
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        let mut st = self.queue.state.lock().expect("admission state");
        st.in_flight -= 1;
        drop(st);
        self.queue.admitted.notify_all();
    }
}

impl AdmissionQueue {
    /// A gate admitting at most `max_in_flight` requests concurrently
    /// (clamped to ≥ 1) with at most `max_pending` more waiting (0 =
    /// unbounded waiting room), aging its normal lane after
    /// [`DEFAULT_LANE_AGING`](tdm_mapreduce::pool::DEFAULT_LANE_AGING) High
    /// admissions.
    pub fn new(max_in_flight: usize, max_pending: usize) -> Self {
        AdmissionQueue {
            max_in_flight: max_in_flight.max(1),
            max_pending,
            state: Mutex::new(AdmitState {
                next_ticket: 0,
                in_flight: 0,
                waiting: PriorityLanes::default(),
            }),
            admitted: Condvar::new(),
        }
    }

    /// Takes a ticket and blocks until it is this request's turn and an
    /// in-flight slot is free.
    ///
    /// # Errors
    /// [`Overloaded`] immediately when the waiting room is full.
    pub fn acquire(&self, priority: Priority) -> Result<Permit<'_>, Overloaded> {
        let mut st = self.state.lock().expect("admission state");
        let pending = st.waiting.len();
        if self.max_pending != 0 && pending >= self.max_pending {
            return Err(Overloaded {
                pending,
                limit: self.max_pending,
            });
        }
        let ticket = st.next_ticket;
        st.next_ticket += 1;
        st.waiting.push(priority, ticket);
        loop {
            if st.in_flight < self.max_in_flight && st.waiting.peek() == Some(&ticket) {
                st.waiting.pop();
                st.in_flight += 1;
                let slots_left = st.in_flight < self.max_in_flight;
                drop(st);
                if slots_left {
                    // The next waiter may be admissible right away.
                    self.admitted.notify_all();
                }
                return Ok(Permit { queue: self });
            }
            st = self.admitted.wait(st).expect("admission state");
        }
    }

    /// Requests currently waiting for admission.
    pub fn pending(&self) -> usize {
        self.state.lock().expect("admission state").waiting.len()
    }

    /// Requests currently admitted (holding a [`Permit`]).
    pub fn in_flight(&self) -> usize {
        self.state.lock().expect("admission state").in_flight
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    use tdm_mapreduce::pool::DEFAULT_LANE_AGING;

    #[test]
    fn in_flight_never_exceeds_the_limit() {
        let q = Arc::new(AdmissionQueue::new(2, 0));
        let peak = Arc::new(AtomicUsize::new(0));
        let live = Arc::new(AtomicUsize::new(0));
        std::thread::scope(|s| {
            for _ in 0..8 {
                let q = Arc::clone(&q);
                let peak = Arc::clone(&peak);
                let live = Arc::clone(&live);
                s.spawn(move || {
                    let permit = q.acquire(Priority::Normal).unwrap();
                    let now = live.fetch_add(1, Ordering::SeqCst) + 1;
                    peak.fetch_max(now, Ordering::SeqCst);
                    std::thread::sleep(std::time::Duration::from_millis(2));
                    live.fetch_sub(1, Ordering::SeqCst);
                    drop(permit);
                });
            }
        });
        assert!(peak.load(Ordering::SeqCst) <= 2, "admission limit breached");
        assert_eq!(q.in_flight(), 0);
        assert_eq!(q.pending(), 0);
    }

    #[test]
    fn fifo_within_a_priority_class() {
        // One slot; a holder blocks it while three tickets queue up. They
        // must be admitted in arrival order.
        let q = Arc::new(AdmissionQueue::new(1, 0));
        let order = Arc::new(Mutex::new(Vec::<usize>::new()));
        let first = q.acquire(Priority::Normal).unwrap();
        std::thread::scope(|s| {
            let mut handles = Vec::new();
            for i in 0..3 {
                let qc = Arc::clone(&q);
                let order = Arc::clone(&order);
                handles.push(s.spawn(move || {
                    let p = qc.acquire(Priority::Normal).unwrap();
                    order.lock().unwrap().push(i);
                    drop(p);
                }));
                // Serialize arrivals so ticket order matches i.
                while q.pending() < i + 1 {
                    std::thread::yield_now();
                }
            }
            drop(first);
        });
        assert_eq!(*order.lock().unwrap(), vec![0, 1, 2]);
    }

    #[test]
    fn high_priority_overtakes_waiting_normal() {
        let q = Arc::new(AdmissionQueue::new(1, 0));
        let order = Arc::new(Mutex::new(Vec::<&'static str>::new()));
        let holder = q.acquire(Priority::Normal).unwrap();
        std::thread::scope(|s| {
            {
                let q = Arc::clone(&q);
                let order = Arc::clone(&order);
                s.spawn(move || {
                    let p = q.acquire(Priority::Normal).unwrap();
                    order.lock().unwrap().push("normal");
                    drop(p);
                });
            }
            while q.pending() < 1 {
                std::thread::yield_now();
            }
            {
                let q = Arc::clone(&q);
                let order = Arc::clone(&order);
                s.spawn(move || {
                    let p = q.acquire(Priority::High).unwrap();
                    order.lock().unwrap().push("high");
                    drop(p);
                });
            }
            while q.pending() < 2 {
                std::thread::yield_now();
            }
            drop(holder);
        });
        assert_eq!(*order.lock().unwrap(), vec!["high", "normal"]);
    }

    #[test]
    fn bounded_waiting_room_rejects_overload() {
        let q = Arc::new(AdmissionQueue::new(1, 1));
        let holder = q.acquire(Priority::Normal).unwrap();
        std::thread::scope(|s| {
            {
                let q = Arc::clone(&q);
                s.spawn(move || {
                    let p = q.acquire(Priority::Normal).unwrap();
                    drop(p);
                });
            }
            while q.pending() < 1 {
                std::thread::yield_now();
            }
            let err = q.acquire(Priority::Normal).unwrap_err();
            assert_eq!(
                err,
                Overloaded {
                    pending: 1,
                    limit: 1
                }
            );
            drop(holder);
        });
    }

    #[test]
    fn aging_prevents_a_continuous_high_stream_from_starving_normal() {
        // One slot. A Normal request queues first, then a stream of High
        // requests keeps the high lane non-empty for the rest of the test.
        // Under strict priority the Normal ticket would be admitted dead
        // last; with aging it must go after exactly DEFAULT_LANE_AGING High
        // admissions.
        let highs = DEFAULT_LANE_AGING + 3;
        let q = Arc::new(AdmissionQueue::new(1, 0));
        let order = Arc::new(Mutex::new(Vec::<&'static str>::new()));
        let holder = q.acquire(Priority::Normal).unwrap();
        std::thread::scope(|s| {
            {
                let q = Arc::clone(&q);
                let order = Arc::clone(&order);
                s.spawn(move || {
                    let p = q.acquire(Priority::Normal).unwrap();
                    order.lock().unwrap().push("normal");
                    drop(p);
                });
            }
            while q.pending() < 1 {
                std::thread::yield_now();
            }
            for i in 0..highs {
                {
                    let q = Arc::clone(&q);
                    let order = Arc::clone(&order);
                    s.spawn(move || {
                        let p = q.acquire(Priority::High).unwrap();
                        order.lock().unwrap().push("high");
                        drop(p);
                    });
                }
                // Serialize arrivals so the high lane's ticket order is fixed.
                while q.pending() < i + 2 {
                    std::thread::yield_now();
                }
            }
            drop(holder);
        });
        let order = order.lock().unwrap();
        assert_eq!(order.len(), highs + 1);
        let normal_pos = order
            .iter()
            .position(|s| *s == "normal")
            .expect("normal request never admitted — starved");
        assert_eq!(
            normal_pos, DEFAULT_LANE_AGING,
            "normal must be admitted after exactly {DEFAULT_LANE_AGING} high admissions: {order:?}"
        );
    }

    #[test]
    fn zero_in_flight_clamps_to_one() {
        let q = AdmissionQueue::new(0, 0);
        let p = q.acquire(Priority::Normal).unwrap();
        assert_eq!(q.in_flight(), 1);
        drop(p);
        assert_eq!(q.in_flight(), 0);
    }
}
