//! Synchronization primitives for simulated tasks.
//!
//! These consume no virtual time by themselves — they only order tasks. Time
//! costs (lock hold times, …) are modelled by the code running between
//! acquisition and release, or by the layers above.
//!
//! * [`SimMutex`] — FIFO ticket lock with direct handoff (no barging), used to
//!   model the PAMI progress-engine lock shared by the main thread and the
//!   asynchronous progress thread.
//! * [`Notify`] — edge-triggered condition-variable-style wakeups.

use std::cell::RefCell;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

use crate::waker_set::WakerSet;

// ---------------------------------------------------------------------------
// SimMutex: FIFO ticket lock with direct handoff
// ---------------------------------------------------------------------------

struct MutexState {
    next_ticket: u64,
    serving: u64,
    wakers: Vec<(u64, Waker)>,
    /// Tickets whose waiters were cancelled while queued; the release path
    /// skips them so the handoff chain cannot wedge.
    cancelled: std::collections::HashSet<u64>,
}

/// A fair (FIFO, direct-handoff) mutex for simulated tasks.
///
/// Fairness matters for fidelity: the paper's §III-D discusses starvation
/// between the main thread and the asynchronous progress thread competing for
/// the progress-engine lock; a barging lock would hide that effect.
pub struct SimMutex {
    state: Rc<RefCell<MutexState>>,
}

impl Clone for SimMutex {
    fn clone(&self) -> Self {
        SimMutex {
            state: Rc::clone(&self.state),
        }
    }
}

impl Default for SimMutex {
    fn default() -> Self {
        Self::new()
    }
}

impl SimMutex {
    /// Create an unlocked mutex.
    pub fn new() -> SimMutex {
        SimMutex {
            state: Rc::new(RefCell::new(MutexState {
                next_ticket: 0,
                serving: 0,
                wakers: Vec::new(),
                cancelled: std::collections::HashSet::new(),
            })),
        }
    }

    /// Acquire the lock, waiting FIFO behind earlier requesters.
    pub fn lock(&self) -> MutexLock {
        MutexLock {
            state: Rc::clone(&self.state),
            ticket: None,
        }
    }

    /// Attempt to acquire without waiting.
    pub fn try_lock(&self) -> Option<MutexGuard> {
        let mut st = self.state.borrow_mut();
        if st.serving == st.next_ticket {
            let ticket = st.next_ticket;
            st.next_ticket += 1;
            drop(st);
            Some(MutexGuard {
                state: Rc::clone(&self.state),
                _ticket: ticket,
            })
        } else {
            None
        }
    }

    /// True when some task currently holds the lock.
    pub fn is_locked(&self) -> bool {
        let st = self.state.borrow();
        st.serving < st.next_ticket
    }
}

/// Future returned by [`SimMutex::lock`].
pub struct MutexLock {
    state: Rc<RefCell<MutexState>>,
    ticket: Option<u64>,
}

impl Future for MutexLock {
    type Output = MutexGuard;
    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<MutexGuard> {
        let this = self.get_mut();
        let ticket = match this.ticket {
            Some(t) => t,
            None => {
                let t = {
                    let mut st = this.state.borrow_mut();
                    let t = st.next_ticket;
                    st.next_ticket += 1;
                    t
                };
                this.ticket = Some(t);
                t
            }
        };
        let mut st = this.state.borrow_mut();
        if st.serving == ticket {
            drop(st);
            // Hand responsibility for the release to the guard; the future's
            // Drop must no longer treat this ticket as a cancelled waiter.
            this.ticket = None;
            Poll::Ready(MutexGuard {
                state: Rc::clone(&this.state),
                _ticket: ticket,
            })
        } else {
            match st.wakers.iter_mut().find(|(t, _)| *t == ticket) {
                Some(slot) => slot.1 = cx.waker().clone(),
                None => st.wakers.push((ticket, cx.waker().clone())),
            }
            Poll::Pending
        }
    }
}

impl Drop for MutexLock {
    fn drop(&mut self) {
        // A cancelled waiter must give its turn away or the queue deadlocks.
        if let Some(ticket) = self.ticket {
            let mut st = self.state.borrow_mut();
            st.wakers.retain(|(t, _)| *t != ticket);
            if st.serving == ticket {
                // We were just granted the lock but never produced a guard.
                advance_serving(&mut st);
            } else {
                // Still queued: mark the ticket dead so the release path
                // skips it when its turn comes.
                st.cancelled.insert(ticket);
            }
        }
    }
}

/// RAII guard; releasing hands the lock to the next waiter in FIFO order.
pub struct MutexGuard {
    state: Rc<RefCell<MutexState>>,
    _ticket: u64,
}

impl Drop for MutexGuard {
    fn drop(&mut self) {
        let mut st = self.state.borrow_mut();
        advance_serving(&mut st);
    }
}

fn advance_serving(st: &mut MutexState) {
    loop {
        st.serving += 1;
        let serving = st.serving;
        if serving >= st.next_ticket {
            break; // lock is free; the next lock() call acquires directly
        }
        if st.cancelled.remove(&serving) {
            continue; // dead ticket: skip to the next waiter
        }
        if let Some(pos) = st.wakers.iter().position(|(t, _)| *t == serving) {
            let (_, w) = st.wakers.swap_remove(pos);
            w.wake();
        }
        break;
    }
}

// ---------------------------------------------------------------------------
// Notify: condition-variable-style wakeups
// ---------------------------------------------------------------------------

struct NotifyState {
    epoch: u64,
    wakers: WakerSet,
}

/// Edge-triggered notification: [`Notify::wait`] resolves after the *next*
/// [`Notify::notify_all`] (notifications issued after the future is created,
/// even before its first poll, count — so the check-then-wait pattern has no
/// lost-wakeup window in the single-threaded executor).
pub struct Notify {
    state: Rc<RefCell<NotifyState>>,
}

impl Clone for Notify {
    fn clone(&self) -> Self {
        Notify {
            state: Rc::clone(&self.state),
        }
    }
}

impl Default for Notify {
    fn default() -> Self {
        Self::new()
    }
}

impl Notify {
    /// Create a notifier.
    pub fn new() -> Notify {
        Notify {
            state: Rc::new(RefCell::new(NotifyState {
                epoch: 0,
                wakers: WakerSet::new(),
            })),
        }
    }

    /// Wake every current waiter (and satisfy `wait` futures already created).
    pub fn notify_all(&self) {
        let wakers = {
            let mut st = self.state.borrow_mut();
            st.epoch += 1;
            st.wakers.take_all()
        };
        for w in wakers {
            w.wake();
        }
    }

    /// Future resolving at the next notification.
    pub fn wait(&self) -> NotifyWait {
        NotifyWait {
            state: Rc::clone(&self.state),
            epoch: self.state.borrow().epoch,
            slot: None,
        }
    }
}

/// Future returned by [`Notify::wait`].
pub struct NotifyWait {
    state: Rc<RefCell<NotifyState>>,
    epoch: u64,
    slot: Option<u64>,
}

impl Future for NotifyWait {
    type Output = ();
    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        let this = self.get_mut();
        let mut st = this.state.borrow_mut();
        if st.epoch != this.epoch {
            st.wakers.remove(&this.slot);
            Poll::Ready(())
        } else {
            st.wakers.register(&mut this.slot, cx.waker());
            Poll::Pending
        }
    }
}

impl Drop for NotifyWait {
    fn drop(&mut self) {
        self.state.borrow_mut().wakers.remove(&self.slot);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Sim, SimDuration};
    use std::cell::RefCell as StdRefCell;

    #[test]
    fn mutex_mutual_exclusion_and_fifo() {
        let sim = Sim::new();
        let m = SimMutex::new();
        let order: Rc<StdRefCell<Vec<u32>>> = Rc::new(StdRefCell::new(Vec::new()));
        for id in 0..4u32 {
            let m = m.clone();
            let s = sim.clone();
            let order = Rc::clone(&order);
            sim.spawn(async move {
                let _g = m.lock().await;
                order.borrow_mut().push(id);
                s.sleep(SimDuration::from_us(10)).await;
            });
        }
        let end = sim.run();
        assert_eq!(&*order.borrow(), &[0, 1, 2, 3]);
        // Serialized: 4 * 10us.
        assert_eq!(end.as_us(), 40.0);
    }

    #[test]
    fn mutex_try_lock() {
        let m = SimMutex::new();
        let g = m.try_lock().unwrap();
        assert!(m.is_locked());
        assert!(m.try_lock().is_none());
        drop(g);
        assert!(!m.is_locked());
        assert!(m.try_lock().is_some());
    }

    #[test]
    fn mutex_handoff_no_barging() {
        // A task that releases and immediately relocks must go behind a
        // waiting task.
        let sim = Sim::new();
        let m = SimMutex::new();
        let order: Rc<StdRefCell<Vec<&'static str>>> = Rc::new(StdRefCell::new(Vec::new()));
        {
            let m = m.clone();
            let s = sim.clone();
            let order = Rc::clone(&order);
            sim.spawn(async move {
                let g = m.lock().await;
                order.borrow_mut().push("a1");
                s.sleep(SimDuration::from_us(5)).await;
                drop(g);
                let _g2 = m.lock().await;
                order.borrow_mut().push("a2");
            });
        }
        {
            let m = m.clone();
            let s = sim.clone();
            let order = Rc::clone(&order);
            sim.spawn(async move {
                s.sleep(SimDuration::from_us(1)).await; // arrive while held
                let _g = m.lock().await;
                order.borrow_mut().push("b");
            });
        }
        sim.run();
        assert_eq!(&*order.borrow(), &["a1", "b", "a2"]);
    }

    #[test]
    fn notify_wakes_waiters() {
        let sim = Sim::new();
        let n = Notify::new();
        let n2 = n.clone();
        let s = sim.clone();
        let h = sim.spawn(async move {
            n2.wait().await;
            s.now()
        });
        let s2 = sim.clone();
        sim.spawn(async move {
            s2.sleep(SimDuration::from_us(3)).await;
            n.notify_all();
        });
        sim.run();
        assert_eq!(h.try_result().unwrap().as_us(), 3.0);
    }

    #[test]
    fn notify_created_before_signal_counts() {
        let sim = Sim::new();
        let n = Notify::new();
        let fut = n.wait(); // created before the notification
        n.notify_all();
        let h = sim.spawn(async move {
            fut.await;
            true
        });
        sim.run();
        assert_eq!(h.try_result(), Some(true));
    }
}
