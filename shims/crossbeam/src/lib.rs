//! Offline API-subset shim for `crossbeam`: the unbounded MPMC channel
//! the workspace uses (`unbounded`, `send`, `recv`, `try_recv`,
//! `recv_timeout`, `len`).
//!
//! The channel is a `Mutex<VecDeque>` + `Condvar` queue with sender /
//! receiver reference counting for crossbeam-compatible disconnect
//! semantics: `recv` errors once all senders are gone and the queue is
//! drained; `send` errors once all receivers are gone. See DESIGN.md §8
//! for the shim policy.

/// MPMC channels with crossbeam-shaped errors.
pub mod channel {
    use std::collections::VecDeque;
    use std::fmt;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Arc, Condvar, Mutex, PoisonError};
    use std::time::{Duration, Instant};

    struct Chan<T> {
        queue: Mutex<VecDeque<T>>,
        ready: Condvar,
        senders: AtomicUsize,
        receivers: AtomicUsize,
    }

    impl<T> Chan<T> {
        fn lock(&self) -> std::sync::MutexGuard<'_, VecDeque<T>> {
            self.queue.lock().unwrap_or_else(PoisonError::into_inner)
        }
    }

    /// Error for [`Sender::send`]: every receiver was dropped. Carries
    /// the unsent message back.
    pub struct SendError<T>(pub T);

    impl<T> fmt::Debug for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("SendError(..)")
        }
    }

    impl<T> fmt::Display for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("sending on a disconnected channel")
        }
    }

    /// Error for [`Receiver::recv`]: channel empty and all senders gone.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct RecvError;

    impl fmt::Display for RecvError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("receiving on an empty and disconnected channel")
        }
    }

    /// Error for [`Receiver::try_recv`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum TryRecvError {
        /// Nothing queued right now.
        Empty,
        /// Nothing queued and all senders dropped.
        Disconnected,
    }

    /// Error for [`Receiver::recv_timeout`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum RecvTimeoutError {
        /// Nothing arrived before the timeout.
        Timeout,
        /// Nothing queued and all senders dropped.
        Disconnected,
    }

    /// The sending half; cheap to clone.
    pub struct Sender<T> {
        chan: Arc<Chan<T>>,
    }

    /// The receiving half; cheap to clone (MPMC).
    pub struct Receiver<T> {
        chan: Arc<Chan<T>>,
    }

    /// Creates an unbounded channel.
    #[must_use]
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        let chan = Arc::new(Chan {
            queue: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
            senders: AtomicUsize::new(1),
            receivers: AtomicUsize::new(1),
        });
        (
            Sender {
                chan: Arc::clone(&chan),
            },
            Receiver { chan },
        )
    }

    impl<T> Sender<T> {
        /// Enqueues `msg`, failing if every receiver was dropped.
        pub fn send(&self, msg: T) -> Result<(), SendError<T>> {
            // Check under the queue lock: Receiver::drop also takes it
            // while decrementing, so disconnect and enqueue are
            // arbitrated atomically (as in real crossbeam) — send never
            // returns Ok for a channel whose last receiver is already
            // gone.
            let mut queue = self.chan.lock();
            if self.chan.receivers.load(Ordering::Acquire) == 0 {
                drop(queue);
                return Err(SendError(msg));
            }
            queue.push_back(msg);
            drop(queue);
            self.chan.ready.notify_one();
            Ok(())
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.chan.senders.fetch_add(1, Ordering::Relaxed);
            Sender {
                chan: Arc::clone(&self.chan),
            }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            if self.chan.senders.fetch_sub(1, Ordering::AcqRel) == 1 {
                // Last sender: wake blocked receivers so they observe
                // the disconnect.
                self.chan.ready.notify_all();
            }
        }
    }

    impl<T> fmt::Debug for Sender<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("Sender { .. }")
        }
    }

    impl<T> Receiver<T> {
        /// Blocks until a message arrives or all senders disconnect.
        pub fn recv(&self) -> Result<T, RecvError> {
            let chan = &self.chan;
            let mut queue = chan.lock();
            loop {
                if let Some(msg) = queue.pop_front() {
                    return Ok(msg);
                }
                if chan.senders.load(Ordering::Acquire) == 0 {
                    return Err(RecvError);
                }
                queue = chan
                    .ready
                    .wait(queue)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        }

        /// Returns a queued message without blocking.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let chan = &self.chan;
            let mut queue = chan.lock();
            match queue.pop_front() {
                Some(msg) => Ok(msg),
                None if chan.senders.load(Ordering::Acquire) == 0 => {
                    Err(TryRecvError::Disconnected)
                }
                None => Err(TryRecvError::Empty),
            }
        }

        /// Blocks up to `timeout` for a message.
        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            let chan = &self.chan;
            let deadline = Instant::now() + timeout;
            let mut queue = chan.lock();
            loop {
                if let Some(msg) = queue.pop_front() {
                    return Ok(msg);
                }
                if chan.senders.load(Ordering::Acquire) == 0 {
                    return Err(RecvTimeoutError::Disconnected);
                }
                let now = Instant::now();
                if now >= deadline {
                    return Err(RecvTimeoutError::Timeout);
                }
                let (guard, _) = chan
                    .ready
                    .wait_timeout(queue, deadline - now)
                    .unwrap_or_else(PoisonError::into_inner);
                queue = guard;
            }
        }

        /// Number of queued messages.
        #[must_use]
        pub fn len(&self) -> usize {
            self.chan.lock().len()
        }

        /// Whether the queue is empty.
        #[must_use]
        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            self.chan.receivers.fetch_add(1, Ordering::Relaxed);
            Receiver {
                chan: Arc::clone(&self.chan),
            }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            // Serialize with in-flight sends (see Sender::send).
            let _queue = self.chan.lock();
            self.chan.receivers.fetch_sub(1, Ordering::AcqRel);
        }
    }

    impl<T> fmt::Debug for Receiver<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("Receiver { .. }")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::channel::{unbounded, RecvTimeoutError, TryRecvError};
    use std::time::Duration;

    #[test]
    fn send_recv_fifo() {
        let (tx, rx) = unbounded();
        for i in 0..10 {
            tx.send(i).unwrap();
        }
        for want in 0..10 {
            assert_eq!(rx.recv().unwrap(), want);
        }
    }

    #[test]
    fn disconnect_on_sender_drop() {
        let (tx, rx) = unbounded::<u32>();
        tx.send(1).unwrap();
        drop(tx);
        assert_eq!(rx.recv().unwrap(), 1); // drains before erroring
        assert!(rx.recv().is_err());
        assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
    }

    #[test]
    fn send_fails_without_receivers() {
        let (tx, rx) = unbounded::<u32>();
        drop(rx);
        assert!(tx.send(1).is_err());
    }

    #[test]
    fn recv_timeout_expires() {
        let (_tx, rx) = unbounded::<u32>();
        let got = rx.recv_timeout(Duration::from_millis(10));
        assert_eq!(got, Err(RecvTimeoutError::Timeout));
    }

    #[test]
    fn mpmc_clones_share_queue() {
        let (tx, rx) = unbounded();
        let rx2 = rx.clone();
        tx.send(7).unwrap();
        assert_eq!(rx2.recv().unwrap(), 7);
        assert_eq!(rx.len(), 0);
    }

    #[test]
    fn cross_thread_delivery() {
        let (tx, rx) = unbounded();
        let handle = std::thread::spawn(move || {
            for i in 0..100 {
                tx.send(i).unwrap();
            }
        });
        let mut sum = 0u64;
        for _ in 0..100 {
            sum += rx.recv().unwrap();
        }
        handle.join().unwrap();
        assert_eq!(sum, 4950);
    }
}
