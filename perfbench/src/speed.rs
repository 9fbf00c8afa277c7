//! The host's speed, measured beside the program.
//!
//! The benchmark runs on shared machines whose speed drifts by half or
//! more over seconds as other tenants come and go. A probe of the
//! benchmark's own, never the program's, times a loopback TCP round trip
//! (connect, send 64 bytes, read them back) every [`PROBE_EVERY_S`] while
//! a timed phase or a rebuild runs. Timings are then given at a reference
//! speed: each is multiplied by [`NOMINAL_US`] over the median round trip
//! of the probes around it. On a host whose round trip takes
//! [`NOMINAL_US`] the figures are plain wall-clock times.

use crate::stats::median;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The round trip, in microseconds, of the reference host.
pub const NOMINAL_US: f64 = 250.0;
/// Seconds between probes in a timed phase.
pub const PROBE_EVERY_S: f64 = 0.01;
/// A timing is scaled by the probes started within this many seconds of
/// its end.
pub const HALF_SPAN_S: f64 = 1.0;
/// Step of the grid the scale factors are kept on.
const STEP_S: f64 = 0.25;
/// Bytes each way of a round trip.
const ECHO_BYTES: usize = 64;
const TIMEOUT: Duration = Duration::from_secs(5);

/// One probe: its start in seconds from the phase's epoch, and how many
/// microseconds the round trip took.
#[derive(Debug, Clone, Copy)]
pub struct Reading {
    pub at_s: f64,
    pub us: f64,
}

/// A loopback echo server of the benchmark's own, answering one round
/// trip per connection on a thread of its own as the program's
/// `TcpServer` does.
pub struct Probe {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
}

impl Probe {
    pub fn start() -> Result<Probe, String> {
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
        let addr = listener.local_addr().map_err(|e| e.to_string())?;
        let stop = Arc::new(AtomicBool::new(false));
        let accept_stop = Arc::clone(&stop);
        let accept = std::thread::Builder::new()
            .name("speed-echo".into())
            .spawn(move || {
                let mut handlers: Vec<JoinHandle<()>> = Vec::new();
                for stream in listener.incoming() {
                    if accept_stop.load(Ordering::Relaxed) {
                        break;
                    }
                    handlers.retain(|h| !h.is_finished());
                    if let Ok(stream) = stream {
                        handlers
                            .extend(std::thread::Builder::new().spawn(move || echo(stream)).ok());
                    }
                }
                for handler in handlers {
                    handler.join().ok();
                }
            })
            .map_err(|e| e.to_string())?;
        Ok(Probe {
            addr,
            stop,
            accept: Some(accept),
        })
    }

    /// Times one round trip; `None` if it failed.
    pub fn read(&self, at_s: f64) -> Option<Reading> {
        let start = Instant::now();
        self.round_trip().ok()?;
        Some(Reading {
            at_s,
            us: start.elapsed().as_secs_f64() * 1e6,
        })
    }

    /// Runs `job` while another thread probes every [`PROBE_EVERY_S`],
    /// and returns its result with the factor for its span:
    /// [`NOMINAL_US`] over the median round trip.
    pub fn during<T>(&self, job: impl FnOnce() -> T) -> (T, f64) {
        let done = AtomicBool::new(false);
        let (out, us) = std::thread::scope(|scope| {
            let prober = scope.spawn(|| {
                let mut us = Vec::new();
                loop {
                    us.extend(self.read(0.0).map(|r| r.us));
                    if done.load(Ordering::Relaxed) {
                        break us;
                    }
                    std::thread::sleep(Duration::from_secs_f64(PROBE_EVERY_S));
                }
            });
            let out = job();
            done.store(true, Ordering::Relaxed);
            (out, prober.join().expect("probe thread panicked"))
        });
        let factor = if us.is_empty() {
            1.0
        } else {
            NOMINAL_US / median(&us)
        };
        (out, factor)
    }

    fn round_trip(&self) -> std::io::Result<()> {
        let mut stream = TcpStream::connect_timeout(&self.addr, TIMEOUT)?;
        stream.set_read_timeout(Some(TIMEOUT))?;
        stream.set_nodelay(true).ok();
        let mut buf = [7u8; ECHO_BYTES];
        stream.write_all(&buf)?;
        stream.read_exact(&mut buf)
    }
}

/// Answers one round trip on its own thread, as `TcpServer` answers each
/// connection.
fn echo(mut stream: TcpStream) {
    stream.set_read_timeout(Some(TIMEOUT)).ok();
    stream.set_nodelay(true).ok();
    let mut buf = [0u8; ECHO_BYTES];
    if stream.read_exact(&mut buf).is_ok() {
        stream.write_all(&buf).ok();
    }
}

impl Drop for Probe {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        // Wake the accept loop so that it sees the flag.
        TcpStream::connect_timeout(&self.addr, TIMEOUT).ok();
        if let Some(handle) = self.accept.take() {
            handle.join().ok();
        }
    }
}

/// Scale factors for one timed phase: [`NOMINAL_US`] over the median
/// round trip of the probes started within [`HALF_SPAN_S`] of a moment
/// (below 1 when the host ran slow), kept on a grid of [`STEP_S`].
#[derive(Debug, Clone)]
pub struct Speed {
    factors: Vec<f64>,
    overall: f64,
}

impl Speed {
    pub fn new(readings: &[Reading]) -> Speed {
        let mut sorted = readings.to_vec();
        sorted.sort_by(|a, b| a.at_s.total_cmp(&b.at_s));
        let us: Vec<f64> = sorted.iter().map(|r| r.us).collect();
        let overall = if us.is_empty() {
            1.0
        } else {
            NOMINAL_US / median(&us)
        };
        let end = sorted.last().map_or(0.0, |r| r.at_s);
        let factors = (0..=step(end))
            .map(|i| {
                let at = i as f64 * STEP_S;
                let lo = sorted.partition_point(|r| r.at_s < at - HALF_SPAN_S);
                let hi = sorted.partition_point(|r| r.at_s <= at + HALF_SPAN_S);
                if hi > lo {
                    NOMINAL_US / median(&us[lo..hi])
                } else {
                    overall
                }
            })
            .collect();
        Speed { factors, overall }
    }

    /// The factor for a moment `at_s` seconds into the phase.
    pub fn factor(&self, at_s: f64) -> f64 {
        self.factors
            .get(step(at_s))
            .copied()
            .unwrap_or(self.overall)
    }

    /// The first `seconds` of the phase at the reference speed.
    pub fn scaled_seconds(&self, seconds: f64) -> f64 {
        let mut total = 0.0;
        let mut from = 0.0;
        while from < seconds {
            let to = (from + STEP_S).min(seconds);
            total += (to - from) * self.factor((from + to) / 2.0);
            from = to;
        }
        total
    }

    /// The median factor over the phase.
    pub fn median_factor(&self) -> f64 {
        if self.factors.is_empty() {
            self.overall
        } else {
            median(&self.factors)
        }
    }
}

/// The grid point nearest `at_s`.
fn step(at_s: f64) -> usize {
    (at_s.max(0.0) / STEP_S).round() as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_slow_stretch_scales_its_own_timings_down() {
        // Probes every 10 ms for 10 s; seconds 4 to 6 run at half speed.
        let readings: Vec<Reading> = (0..1000)
            .map(|i| {
                let at_s = i as f64 * 0.01;
                let slow = (4.0..6.0).contains(&at_s);
                Reading {
                    at_s,
                    us: if slow { 2.0 * NOMINAL_US } else { NOMINAL_US },
                }
            })
            .collect();
        let speed = Speed::new(&readings);
        assert_eq!(speed.factor(1.0), 1.0);
        assert_eq!(speed.factor(5.0), 0.5);
        assert_eq!(speed.factor(8.5), 1.0);
        // Past the last probe, the phase's median round trip.
        assert_eq!(speed.factor(60.0), 1.0);
        assert!((speed.scaled_seconds(10.0) - 9.0).abs() < 0.2);
        assert_eq!(speed.median_factor(), 1.0);
        assert_eq!(Speed::new(&[]).factor(1.0), 1.0);
    }

    #[test]
    fn a_round_trip_is_timed_and_the_server_stops() {
        let probe = Probe::start().expect("bind loopback");
        let reading = probe.read(0.25).expect("round trip");
        assert_eq!(reading.at_s, 0.25);
        assert!(reading.us > 0.0);
        let (seven, factor) = probe.during(|| {
            std::thread::sleep(Duration::from_millis(30));
            7
        });
        assert_eq!(seven, 7);
        assert!(factor > 0.0);
        drop(probe);
    }
}
