//! A std-only bounded MPMC queue (mutex + condvars).
//!
//! This is the admission-control primitive behind the ingress queue
//! (client chunks → batcher): admission needs a push that gives up after
//! a timeout, which the pool's blocking batch channel does not offer. A
//! full queue pushes back with [`PushError::Full`] after the caller's
//! timeout — the connection handler translates that into a typed `Busy`
//! response rather than buffering.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// Why a push did not enqueue; the rejected item is handed back.
#[derive(Debug)]
pub enum PushError<T> {
    /// The queue stayed at capacity for the whole timeout.
    Full(T),
    /// The queue was closed; no further items are accepted.
    Closed(T),
}

/// What a pop produced.
#[derive(Debug)]
pub enum PopOutcome<T> {
    /// An item.
    Item(T),
    /// The queue stayed empty for the whole timeout (still open).
    Empty,
    /// The queue is closed and fully drained.
    Closed,
}

struct Inner<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// Fixed-capacity MPMC queue with timed blocking push/pop and close.
pub struct BoundedQueue<T> {
    inner: Mutex<Inner<T>>,
    capacity: usize,
    not_full: Condvar,
    not_empty: Condvar,
}

impl<T> BoundedQueue<T> {
    /// Create a queue holding at most `capacity` items.
    pub fn new(capacity: usize) -> BoundedQueue<T> {
        assert!(capacity > 0, "queue capacity must be positive");
        BoundedQueue {
            inner: Mutex::new(Inner {
                items: VecDeque::with_capacity(capacity),
                closed: false,
            }),
            capacity,
            not_full: Condvar::new(),
            not_empty: Condvar::new(),
        }
    }

    /// Current depth (racy; for metrics only).
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().items.len()
    }

    /// Whether the queue is currently empty (racy; for metrics only).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Enqueue, waiting up to `timeout` for space.
    pub fn push_timeout(&self, item: T, timeout: Duration) -> Result<(), PushError<T>> {
        let deadline = Instant::now() + timeout;
        let mut inner = self.inner.lock().unwrap();
        loop {
            if inner.closed {
                return Err(PushError::Closed(item));
            }
            if inner.items.len() < self.capacity {
                inner.items.push_back(item);
                drop(inner);
                self.not_empty.notify_one();
                return Ok(());
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(PushError::Full(item));
            }
            let (guard, _timed_out) = self.not_full.wait_timeout(inner, deadline - now).unwrap();
            inner = guard;
        }
    }

    /// Dequeue, waiting up to `timeout` for an item. A closed queue
    /// drains its remaining items before reporting [`PopOutcome::Closed`].
    pub fn pop_timeout(&self, timeout: Duration) -> PopOutcome<T> {
        let deadline = Instant::now() + timeout;
        let mut inner = self.inner.lock().unwrap();
        loop {
            if let Some(item) = inner.items.pop_front() {
                drop(inner);
                self.not_full.notify_one();
                return PopOutcome::Item(item);
            }
            if inner.closed {
                return PopOutcome::Closed;
            }
            let now = Instant::now();
            if now >= deadline {
                return PopOutcome::Empty;
            }
            let (guard, _timed_out) = self.not_empty.wait_timeout(inner, deadline - now).unwrap();
            inner = guard;
        }
    }

    /// Dequeue immediately if an item is available.
    pub fn try_pop(&self) -> Option<T> {
        let mut inner = self.inner.lock().unwrap();
        let item = inner.items.pop_front();
        if item.is_some() {
            drop(inner);
            self.not_full.notify_one();
        }
        item
    }

    /// Close the queue: pending pushes fail with `Closed`, pops drain the
    /// backlog then report `Closed`.
    pub fn close(&self) {
        let mut inner = self.inner.lock().unwrap();
        inner.closed = true;
        drop(inner);
        self.not_full.notify_all();
        self.not_empty.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn push_pop_fifo() {
        let q = BoundedQueue::new(4);
        for i in 0..4 {
            q.push_timeout(i, Duration::from_millis(10)).unwrap();
        }
        for i in 0..4 {
            match q.pop_timeout(Duration::from_millis(10)) {
                PopOutcome::Item(v) => assert_eq!(v, i),
                other => panic!("expected item, got {other:?}"),
            }
        }
        assert!(matches!(
            q.pop_timeout(Duration::from_millis(5)),
            PopOutcome::Empty
        ));
    }

    #[test]
    fn full_queue_sheds_after_timeout() {
        let q = BoundedQueue::new(1);
        q.push_timeout(1, Duration::from_millis(5)).unwrap();
        match q.push_timeout(2, Duration::from_millis(20)) {
            Err(PushError::Full(2)) => {}
            other => panic!("expected Full(2), got {other:?}"),
        }
    }

    #[test]
    fn blocked_push_wakes_on_pop() {
        let q = Arc::new(BoundedQueue::new(1));
        q.push_timeout(1, Duration::from_millis(5)).unwrap();
        let q2 = Arc::clone(&q);
        let pusher = thread::spawn(move || q2.push_timeout(2, Duration::from_secs(5)));
        thread::sleep(Duration::from_millis(20));
        assert!(matches!(
            q.pop_timeout(Duration::from_millis(100)),
            PopOutcome::Item(1)
        ));
        pusher.join().unwrap().unwrap();
        assert!(matches!(
            q.pop_timeout(Duration::from_millis(100)),
            PopOutcome::Item(2)
        ));
    }

    #[test]
    fn close_drains_backlog_then_reports_closed() {
        let q = BoundedQueue::new(4);
        q.push_timeout("a", Duration::from_millis(5)).unwrap();
        q.close();
        assert!(matches!(
            q.push_timeout("b", Duration::from_millis(5)),
            Err(PushError::Closed("b"))
        ));
        assert!(matches!(
            q.pop_timeout(Duration::from_millis(5)),
            PopOutcome::Item("a")
        ));
        assert!(matches!(
            q.pop_timeout(Duration::from_millis(5)),
            PopOutcome::Closed
        ));
    }

    #[test]
    fn close_wakes_blocked_poppers() {
        let q = Arc::new(BoundedQueue::<u32>::new(1));
        let q2 = Arc::clone(&q);
        let popper = thread::spawn(move || q2.pop_timeout(Duration::from_secs(5)));
        thread::sleep(Duration::from_millis(20));
        q.close();
        assert!(matches!(popper.join().unwrap(), PopOutcome::Closed));
    }
}
