//! Calibrated host time.
//!
//! The sandbox's cores switch between speeds about 1.3× apart and stay at
//! one for anything from a fraction of a second to minutes, so wall time
//! for identical work differs by that much from run to run and no
//! repetition inside a run averages it out. Every timed segment is
//! therefore followed by a short fixed integer spin, and the segment's
//! wall time is scaled by how fast the spins on either side of it ran,
//! relative to [`REF_SPIN_MS`]. A calibrated second is a second of a
//! machine that runs the spin in exactly that time, which is this sandbox
//! at its faster speed.

use std::hint::black_box;
use std::time::Instant;

/// xorshift64 steps per spin.
const SPIN_STEPS: u64 = 800_000;
/// Duration of one spin on the undisturbed sandbox that defined the
/// benchmark, in ms. Changing it rescales every host-time metric.
pub const REF_SPIN_MS: f64 = 1.155;

/// One calibration spin; returns how long it took, in ms.
fn spin_ms() -> f64 {
    let t = Instant::now();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for _ in 0..SPIN_STEPS {
        // A serial dependency chain with no closed form.
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    black_box(x);
    t.elapsed().as_secs_f64() * 1e3
}

/// Scales the wall time of consecutive segments of work by the speed of
/// the machine around each.
pub struct Clock {
    last_spin: f64,
    /// Every spin taken, in ms.
    pub spins: Vec<f64>,
}

impl Clock {
    /// Take the opening spin.
    pub fn start() -> Clock {
        let spin = spin_ms();
        // Sized up front, so that a clock's own allocations do not depend
        // on how many segments a run happens to have.
        let mut spins = Vec::with_capacity(1 << 14);
        spins.push(spin);
        Clock {
            last_spin: spin,
            spins,
        }
    }

    /// Spin, and return the factor that turns the wall time of the
    /// segment just ended (everything since the previous spin) into
    /// calibrated time: reference spin ÷ mean of the two spins around it.
    pub fn scale(&mut self) -> f64 {
        let spin = spin_ms();
        let scale = REF_SPIN_MS / ((self.last_spin + spin) / 2.0);
        self.last_spin = spin;
        self.spins.push(spin);
        scale
    }
}
