//! Open-loop load: requests are due on a fixed schedule whatever the
//! program does.  A request is timed from the instant it was *due*, so a
//! stall is charged to every request it delays, and how late the
//! generator itself ran is reported beside the latencies.

use std::time::{Duration, Instant};

pub trait Clock {
    /// Nanoseconds since the schedule's start.
    fn now_ns(&mut self) -> u64;
    /// Returns at or after `at_ns`; immediately when it has passed.
    fn sleep_until(&mut self, at_ns: u64);
}

pub struct WallClock {
    start: Instant,
}

impl WallClock {
    pub fn starting_now() -> Self {
        WallClock {
            start: Instant::now(),
        }
    }
}

impl Clock for WallClock {
    fn now_ns(&mut self) -> u64 {
        self.start.elapsed().as_nanos() as u64
    }

    fn sleep_until(&mut self, at_ns: u64) {
        let now = self.now_ns();
        if at_ns > now {
            std::thread::sleep(Duration::from_nanos(at_ns - now));
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sample {
    pub due_ns: u64,
    pub sent_ns: u64,
    pub done_ns: u64,
}

impl Sample {
    /// What a user waiting since the due instant observed.
    pub fn latency_ns(&self) -> u64 {
        self.done_ns - self.due_ns
    }

    /// How far behind its schedule the generator sent the request.
    pub fn lateness_ns(&self) -> u64 {
        self.sent_ns - self.due_ns
    }
}

/// Sends request `i` at `i * period_ns`, or as soon after as the previous
/// one has returned (one connection carries one request at a time).
pub fn run<C: Clock>(
    clock: &mut C,
    count: usize,
    period_ns: u64,
    mut send: impl FnMut(&mut C, usize),
) -> Vec<Sample> {
    let mut samples = Vec::with_capacity(count);
    for i in 0..count {
        let due_ns = i as u64 * period_ns;
        clock.sleep_until(due_ns);
        let sent_ns = clock.now_ns();
        send(clock, i);
        let done_ns = clock.now_ns();
        samples.push(Sample {
            due_ns,
            sent_ns,
            done_ns,
        });
    }
    samples
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Virtual time: sleeping jumps to the target, sending costs what the
    /// test says it costs.
    struct FakeClock {
        now: u64,
    }

    impl Clock for FakeClock {
        fn now_ns(&mut self) -> u64 {
            self.now
        }
        fn sleep_until(&mut self, at_ns: u64) {
            self.now = self.now.max(at_ns);
        }
    }

    #[test]
    fn on_time_requests_are_timed_from_their_due_instant() {
        let mut clock = FakeClock { now: 0 };
        let samples = run(&mut clock, 3, 100, |c, _| c.now += 30);
        assert_eq!(
            samples,
            vec![
                Sample {
                    due_ns: 0,
                    sent_ns: 0,
                    done_ns: 30
                },
                Sample {
                    due_ns: 100,
                    sent_ns: 100,
                    done_ns: 130
                },
                Sample {
                    due_ns: 200,
                    sent_ns: 200,
                    done_ns: 230
                },
            ]
        );
        assert!(samples
            .iter()
            .all(|s| s.latency_ns() == 30 && s.lateness_ns() == 0));
    }

    #[test]
    fn a_stall_is_charged_to_the_requests_it_delays() {
        // Request 0 stalls for 250 against a period of 100: requests 1
        // and 2 were due at 100 and 200 but cannot be sent before 250.
        let costs = [250u64, 10, 10, 10];
        let mut clock = FakeClock { now: 0 };
        let samples = run(&mut clock, 4, 100, |c, i| c.now += costs[i]);
        let latency: Vec<u64> = samples.iter().map(Sample::latency_ns).collect();
        let lateness: Vec<u64> = samples.iter().map(Sample::lateness_ns).collect();
        assert_eq!(lateness, vec![0, 150, 60, 0]);
        // Service time alone would read 10 for requests 1 and 2.
        assert_eq!(latency, vec![250, 160, 70, 10]);
    }

    #[test]
    fn the_wall_clock_sleeps_to_the_due_instant() {
        let mut clock = WallClock::starting_now();
        let samples = run(&mut clock, 3, 2_000_000, |_, _| ());
        assert_eq!(samples.len(), 3);
        assert!(samples[2].sent_ns >= 4_000_000);
        assert!(samples
            .iter()
            .all(|s| s.done_ns >= s.sent_ns && s.sent_ns >= s.due_ns));
    }
}
