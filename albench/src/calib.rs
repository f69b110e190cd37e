//! Host-speed normalisation. A shared VM's host speed drifts by tens of
//! percent over seconds to minutes (neighbouring load, frequency), far
//! more than the changes a benchmark must resolve. Every host-clock
//! sample is therefore timed next to a fixed probe kernel owned by this
//! crate, and reported scaled to the speed at which the probe takes
//! [`REFERENCE_PROBE_MS`]: `normalised = measured × reference / probe`.
//! The probe shares no code with the program, so a change to the program
//! moves the normalised numbers while a change of host speed moves
//! numerator and denominator together. Raw, unscaled values are printed
//! beside the normalised ones.

use std::hint::black_box;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Probe time, in ms, that defines the reference host speed.
pub const REFERENCE_PROBE_MS: f64 = 1.0;

/// Half-width of the window of probes that normalises one sample.
const WINDOW: Duration = Duration::from_millis(200);
/// Probes used when the window around a sample holds fewer.
const NEAREST: usize = 5;

const N: usize = 16_384;
const PER_ROW: usize = 8;
const PASSES: usize = 6;

/// A fixed CSR sparse matrix-vector kernel (about 1.8 MB, resident in
/// the host's L2), iterated a fixed number of passes.
pub struct Probe {
    row_ptr: Vec<usize>,
    cols: Vec<u32>,
    vals: Vec<f64>,
    x: Vec<f64>,
    y: Vec<f64>,
}

impl Probe {
    pub fn new() -> Self {
        let mut s = 0x9E37_79B9u64;
        let mut row_ptr = vec![0];
        let mut cols = Vec::with_capacity(N * PER_ROW);
        let mut vals = Vec::with_capacity(N * PER_ROW);
        for r in 0..N {
            for k in 0..PER_ROW {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                let c = if k < 4 {
                    (r + k * 3) % N
                } else {
                    (s % N as u64) as usize
                };
                cols.push(c as u32);
                vals.push((s >> 11) as f64 / (1u64 << 53) as f64);
            }
            row_ptr.push(cols.len());
        }
        Probe {
            row_ptr,
            cols,
            vals,
            x: (0..N).map(|i| 1.0 / (1.0 + i as f64)).collect(),
            y: vec![0.0; N],
        }
    }

    fn run(&mut self) -> Duration {
        let t = Instant::now();
        for _ in 0..PASSES {
            for r in 0..N {
                let mut acc = 0.0;
                for k in self.row_ptr[r]..self.row_ptr[r + 1] {
                    acc += self.vals[k] * self.x[self.cols[k] as usize];
                }
                self.y[r] = acc;
            }
            std::mem::swap(&mut self.x, &mut self.y);
            black_box(&self.x);
        }
        t.elapsed()
    }
}

/// Probe timings of one run, shared by every thread that probes.
pub struct SpeedLog {
    t0: Instant,
    probes: Mutex<Vec<(Instant, f64)>>,
}

impl SpeedLog {
    pub fn new() -> Self {
        SpeedLog {
            t0: Instant::now(),
            probes: Mutex::new(Vec::new()),
        }
    }

    /// Runs the probe once and records its time.
    pub fn probe(&self, p: &mut Probe) {
        let at = Instant::now();
        let ms = p.run().as_secs_f64() * 1e3;
        self.probes
            .lock()
            .expect("speed log poisoned")
            .push((at, ms));
    }

    /// Scale from host time measured over `[from, to]` to reference time:
    /// reference probe time over the median probe time near the interval.
    pub fn factor(&self, from: Instant, to: Instant) -> f64 {
        let probes = self.probes.lock().expect("speed log poisoned");
        assert!(!probes.is_empty(), "no speed probe recorded");
        let (lo, hi) = (from.checked_sub(WINDOW).unwrap_or(self.t0), to + WINDOW);
        let mut near: Vec<f64> = probes
            .iter()
            .filter(|(at, _)| *at >= lo && *at <= hi)
            .map(|(_, ms)| *ms)
            .collect();
        if near.len() < NEAREST {
            let mid = from + (to - from) / 2;
            let dist = |at: Instant| at.max(mid) - at.min(mid);
            let mut by: Vec<&(Instant, f64)> = probes.iter().collect();
            by.sort_by_key(|(at, _)| dist(*at));
            near = by.iter().take(NEAREST).map(|(_, ms)| *ms).collect();
        }
        REFERENCE_PROBE_MS / crate::stats::median(&near)
    }

    /// Median probe time of the whole run, in ms.
    pub fn median_ms(&self) -> f64 {
        let probes = self.probes.lock().expect("speed log poisoned");
        let ms: Vec<f64> = probes.iter().map(|(_, ms)| *ms).collect();
        crate::stats::median(&ms)
    }
}
