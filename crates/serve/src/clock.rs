//! Time sources for retry backoff.
//!
//! Nothing in the store or the scheduler reads the wall clock: every
//! operation takes an explicit `now` in milliseconds, and the worker
//! loop obtains it from a [`SweepClock`]. Backoff is the only wait;
//! tests drive a deterministic [`SweepClock::virtual_at`] clock that
//! only moves when the loop has nothing runnable and nothing in
//! flight, so backoff becomes an exact, repeatable state transition
//! instead of a race.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, SystemTime};

/// A millisecond clock: real time for production runs, a manually
/// advanced counter for tests.
#[derive(Debug, Clone)]
pub enum SweepClock {
    /// Milliseconds since the Unix epoch, so a retry time logged by a
    /// crashed process still holds for the resume in a fresh one.
    Wall,
    /// A shared virtual counter; [`SweepClock::wait_until`] jumps it
    /// forward instantly.
    Virtual(Arc<AtomicU64>),
}

impl SweepClock {
    /// A virtual clock starting at `now_ms`.
    #[must_use]
    pub fn virtual_at(now_ms: u64) -> Self {
        SweepClock::Virtual(Arc::new(AtomicU64::new(now_ms)))
    }

    /// The current time in milliseconds.
    #[must_use]
    pub fn now_ms(&self) -> u64 {
        match self {
            SweepClock::Wall => SystemTime::now()
                .duration_since(SystemTime::UNIX_EPOCH)
                .map(|d| d.as_millis() as u64)
                .unwrap_or(0),
            SweepClock::Virtual(counter) => counter.load(Ordering::SeqCst),
        }
    }

    /// Blocks (wall) or jumps (virtual) until `target_ms`. Wall
    /// waits are chunked so a long backoff never sleeps unbounded in
    /// one call.
    pub fn wait_until(&self, target_ms: u64) {
        match self {
            SweepClock::Wall => {
                let now = self.now_ms();
                if target_ms > now {
                    let wait = Duration::from_millis((target_ms - now).min(1_000));
                    std::thread::sleep(wait);
                }
            }
            SweepClock::Virtual(counter) => {
                counter.fetch_max(target_ms, Ordering::SeqCst);
            }
        }
    }

    /// Advances a virtual clock by `delta_ms`; no-op on a wall clock.
    pub fn advance(&self, delta_ms: u64) {
        if let SweepClock::Virtual(counter) = self {
            counter.fetch_add(delta_ms, Ordering::SeqCst);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn virtual_clock_is_deterministic() {
        let clock = SweepClock::virtual_at(100);
        assert_eq!(clock.now_ms(), 100);
        clock.advance(50);
        assert_eq!(clock.now_ms(), 150);
        clock.wait_until(1_000);
        assert_eq!(clock.now_ms(), 1_000);
        // wait_until never moves backwards.
        clock.wait_until(10);
        assert_eq!(clock.now_ms(), 1_000);
    }

    #[test]
    fn clones_share_the_counter() {
        let clock = SweepClock::virtual_at(0);
        let other = clock.clone();
        clock.advance(7);
        assert_eq!(other.now_ms(), 7);
    }
}
