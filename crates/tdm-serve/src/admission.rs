//! Fair FIFO admission with an in-flight limit.
//!
//! A mining request costs a level loop of pool-wide scans, so admitting every
//! arriving client at once just convoys them on the shared worker pool and
//! inflates everyone's latency. The service instead bounds how many requests
//! *mine* concurrently: arrivals take a ticket and block until admitted, in
//! strict arrival order. The waiting room is two ticket counters, the next
//! ticket to take and the next to admit, so it holds no queue: a ticket is
//! admitted when it is the next to admit and a slot is free. Bounding it
//! ([`AdmissionQueue::new`]'s `max_pending`) converts overload into an
//! immediate, explicit rejection instead of an unbounded queue.

use std::sync::{Condvar, Mutex};

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
    /// The ticket the next arrival takes.
    next_ticket: u64,
    /// The ticket admitted next; every ticket below it has been admitted.
    next_admit: u64,
    in_flight: usize,
}

impl AdmitState {
    /// Tickets taken but not yet admitted.
    fn pending(&self) -> usize {
        (self.next_ticket - self.next_admit) as usize
    }
}

/// A blocking, fair-FIFO admission gate. See the [module docs](self).
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
            .field("pending", &st.pending())
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
    /// unbounded waiting room).
    pub fn new(max_in_flight: usize, max_pending: usize) -> Self {
        AdmissionQueue {
            max_in_flight: max_in_flight.max(1),
            max_pending,
            state: Mutex::new(AdmitState {
                next_ticket: 0,
                next_admit: 0,
                in_flight: 0,
            }),
            admitted: Condvar::new(),
        }
    }

    /// Takes a ticket and blocks until it is this request's turn and an
    /// in-flight slot is free.
    ///
    /// # Errors
    /// [`Overloaded`] immediately when the waiting room is full.
    pub fn acquire(&self) -> Result<Permit<'_>, Overloaded> {
        let mut st = self.state.lock().expect("admission state");
        let pending = st.pending();
        if self.max_pending != 0 && pending >= self.max_pending {
            return Err(Overloaded {
                pending,
                limit: self.max_pending,
            });
        }
        let ticket = st.next_ticket;
        st.next_ticket += 1;
        loop {
            if st.in_flight < self.max_in_flight && st.next_admit == ticket {
                st.next_admit += 1;
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
        self.state.lock().expect("admission state").pending()
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
                    let permit = q.acquire().unwrap();
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
    fn waiters_are_admitted_in_arrival_order() {
        // One slot; a holder blocks it while three tickets queue up. They
        // must be admitted in arrival order.
        let q = Arc::new(AdmissionQueue::new(1, 0));
        let order = Arc::new(Mutex::new(Vec::<usize>::new()));
        let first = q.acquire().unwrap();
        std::thread::scope(|s| {
            let mut handles = Vec::new();
            for i in 0..3 {
                let qc = Arc::clone(&q);
                let order = Arc::clone(&order);
                handles.push(s.spawn(move || {
                    let p = qc.acquire().unwrap();
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
    fn bounded_waiting_room_rejects_overload() {
        let q = Arc::new(AdmissionQueue::new(1, 1));
        let holder = q.acquire().unwrap();
        std::thread::scope(|s| {
            {
                let q = Arc::clone(&q);
                s.spawn(move || {
                    let p = q.acquire().unwrap();
                    drop(p);
                });
            }
            while q.pending() < 1 {
                std::thread::yield_now();
            }
            let err = q.acquire().unwrap_err();
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
    fn zero_in_flight_clamps_to_one() {
        let q = AdmissionQueue::new(0, 0);
        let p = q.acquire().unwrap();
        assert_eq!(q.in_flight(), 1);
        drop(p);
        assert_eq!(q.in_flight(), 0);
    }
}
