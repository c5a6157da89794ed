//! Power and energy accounting.
//!
//! Nodes have a linear power model between idle and peak as a function of
//! utilisation; an [`EnergyMeter`] integrates power over virtual-time
//! intervals. This supports the paper's energy-efficiency arguments
//! (slide 3: "are ~100 MW acceptable?"; slide 15: "5 GFlop/W").

use deep_simkit::SimDuration;

/// Linear idle↔peak power model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerModel {
    /// Watts drawn when idle.
    pub idle_w: f64,
    /// Watts drawn at full utilisation.
    pub peak_w: f64,
}

impl PowerModel {
    /// Power at a utilisation in [0, 1].
    fn power_at(&self, utilisation: f64) -> f64 {
        let u = utilisation.clamp(0.0, 1.0);
        self.idle_w + (self.peak_w - self.idle_w) * u
    }
}

/// Accumulates energy over intervals of known utilisation.
#[derive(Debug, Clone, Default)]
pub struct EnergyMeter {
    joules: f64,
    busy: SimDuration,
    idle: SimDuration,
}

impl EnergyMeter {
    /// A zeroed meter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Account an interval at a given utilisation.
    pub fn record(&mut self, power: &PowerModel, d: SimDuration, utilisation: f64) {
        self.joules += power.power_at(utilisation) * d.as_secs_f64();
        if utilisation > 0.0 {
            self.busy += d;
        } else {
            self.idle += d;
        }
    }

    /// Total energy in joules.
    pub fn joules(&self) -> f64 {
        self.joules
    }

    /// Total busy time accounted.
    #[cfg(test)]
    fn busy_time(&self) -> SimDuration {
        self.busy
    }

    /// Total idle time accounted.
    #[cfg(test)]
    fn idle_time(&self) -> SimDuration {
        self.idle
    }

    /// Achieved GFlop/s-per-watt for `flops` of useful work done over the
    /// recorded intervals.
    pub fn gflops_per_watt(&self, flops: f64) -> f64 {
        let total_s = (self.busy + self.idle).as_secs_f64();
        if total_s <= 0.0 || self.joules <= 0.0 {
            return 0.0;
        }
        let avg_power = self.joules / total_s;
        (flops / total_s) / 1e9 / avg_power
    }

    /// Merge another meter into this one.
    pub fn merge(&mut self, other: &EnergyMeter) {
        self.joules += other.joules;
        self.busy += other.busy;
        self.idle += other.idle;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn power_interpolates_linearly() {
        let p = PowerModel {
            idle_w: 100.0,
            peak_w: 300.0,
        };
        assert_eq!(p.power_at(0.0), 100.0);
        assert_eq!(p.power_at(1.0), 300.0);
        assert_eq!(p.power_at(0.5), 200.0);
        // Clamped outside [0,1].
        assert_eq!(p.power_at(-1.0), 100.0);
        assert_eq!(p.power_at(2.0), 300.0);
    }

    #[test]
    fn meter_integrates_energy() {
        let p = PowerModel {
            idle_w: 100.0,
            peak_w: 300.0,
        };
        let mut m = EnergyMeter::new();
        m.record(&p, SimDuration::secs(10), 1.0); // 3000 J
        m.record(&p, SimDuration::secs(10), 0.0); // 1000 J
        assert!((m.joules() - 4000.0).abs() < 1e-9);
        assert_eq!(m.busy_time(), SimDuration::secs(10));
        assert_eq!(m.idle_time(), SimDuration::secs(10));
    }

    #[test]
    fn gflops_per_watt_matches_hand_calculation() {
        let p = PowerModel {
            idle_w: 0.0,
            peak_w: 200.0,
        };
        let mut m = EnergyMeter::new();
        m.record(&p, SimDuration::secs(1), 1.0); // 200 J over 1 s
                                                 // 1e12 flops in 1 s at 200 W = 1000 GF / 200 W = 5 GF/W.
        let eff = m.gflops_per_watt(1e12);
        assert!((eff - 5.0).abs() < 1e-9);
    }

    #[test]
    fn merge_accumulates() {
        let p = PowerModel {
            idle_w: 50.0,
            peak_w: 150.0,
        };
        let mut a = EnergyMeter::new();
        a.record(&p, SimDuration::secs(1), 1.0);
        let mut b = EnergyMeter::new();
        b.record(&p, SimDuration::secs(2), 0.0);
        a.merge(&b);
        assert!((a.joules() - (150.0 + 100.0)).abs() < 1e-9);
        assert_eq!(a.idle_time(), SimDuration::secs(2));
    }
}
