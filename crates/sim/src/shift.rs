//! The D-SymGS operand shift register (Figure 10).
//!
//! "We insert the new variables by shifting the old one to the right": the
//! multiplier inputs of the D-SymGS data path hold the ω vector operands;
//! at each recurrence step the freshly computed `xⱼᵗ` is pushed into the
//! first multiplier while the older operands shift one lane right, evicting
//! the stalest `xᵗ⁻¹` value. Combined with the storage format's reversed
//! upper-triangle order, this keeps every multiplier fed without any
//! addressable access.

/// The ω-lane operand shift register feeding the D-SymGS multipliers.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ShiftRegister {
    lanes: Vec<f64>,
    shifts: u64,
}

impl ShiftRegister {
    /// Initializes the lanes with the `xᵗ⁻¹` chunk (lane 0 holds the
    /// element the first recurrence step consumes first).
    pub fn load(initial: &[f64]) -> Self {
        ShiftRegister {
            lanes: initial.to_vec(),
            shifts: 0,
        }
    }

    /// Reloads the lanes in place (same contract as
    /// [`ShiftRegister::load`]), keeping the lane storage.
    pub fn reload(&mut self, initial: impl IntoIterator<Item = f64>) {
        self.lanes.clear();
        self.lanes.extend(initial);
        self.shifts = 0;
    }

    /// Lane width ω.
    pub fn width(&self) -> usize {
        self.lanes.len()
    }

    /// Current lane contents (lane 0 first).
    pub fn lanes(&self) -> &[f64] {
        &self.lanes
    }

    /// One recurrence step: pushes the new `xⱼᵗ` into lane 0, shifting
    /// every older operand one lane right and returning the evicted value.
    ///
    /// # Panics
    ///
    /// Panics on an empty register.
    pub fn push(&mut self, new_x: f64) -> f64 {
        assert!(!self.lanes.is_empty(), "shift register has no lanes");
        self.lanes.rotate_right(1);
        let evicted = std::mem::replace(&mut self.lanes[0], new_x);
        self.shifts += 1;
        evicted
    }

    /// Number of shifts performed (one per recurrence step).
    pub fn shifts(&self) -> u64 {
        self.shifts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_shifts_right_and_evicts_the_stalest() {
        // Figure 10's example: lanes hold x1..x3 from iteration t-1; the
        // newly computed x0^t enters at lane 0 and x3^{t-1} falls off.
        let mut reg = ShiftRegister::load(&[1.0, 2.0, 3.0]);
        let evicted = reg.push(10.0);
        assert_eq!(evicted, 3.0);
        assert_eq!(reg.lanes(), &[10.0, 1.0, 2.0]);
        let evicted = reg.push(20.0);
        assert_eq!(evicted, 2.0);
        assert_eq!(reg.lanes(), &[20.0, 10.0, 1.0]);
        assert_eq!(reg.shifts(), 2);
    }

    #[test]
    fn reload_equals_a_fresh_load() {
        let mut reg = ShiftRegister::load(&[9.0; 5]);
        reg.push(1.0);
        reg.reload([1.0, 2.0, 3.0]);
        assert_eq!(reg, ShiftRegister::load(&[1.0, 2.0, 3.0]));
    }

    #[test]
    fn after_width_steps_only_current_iteration_values_remain() {
        let mut reg = ShiftRegister::load(&[1.0; 4]);
        for k in 0..4 {
            reg.push(100.0 + f64::from(k));
        }
        assert_eq!(reg.lanes(), &[103.0, 102.0, 101.0, 100.0]);
    }

    #[test]
    fn rotation_matches_the_reversed_storage_order() {
        // The recurrence for row j multiplies lane k by the value at
        // logical column (j - 1 - k) mod window for the x^t part — the
        // reversed (r2l) order the format stores upper-triangle rows in.
        // This test demonstrates the correspondence on a 3-step window:
        // after step j, lane k holds x^t[j - k].
        let mut reg = ShiftRegister::load(&[-1.0, -2.0, -3.0]); // x^{t-1}
        let xt = [7.0, 8.0, 9.0];
        for &v in &xt {
            reg.push(v);
        }
        for (k, lane) in reg.lanes().iter().enumerate() {
            assert_eq!(*lane, xt[xt.len() - 1 - k]);
        }
    }
}
