//! The cost ladder: each layer's event count times its unit cost, summed
//! and set against the measured phase time. What the rungs do not
//! explain is the residual.

/// One rung: a layer's event count and the measured cost of one event.
#[derive(Clone, Copy, Debug)]
pub struct Rung {
    pub name: &'static str,
    pub count: f64,
    pub unit_ns: f64,
}

impl Rung {
    pub fn new(name: &'static str, count: f64, unit_ns: f64) -> Rung {
        Rung {
            name,
            count,
            unit_ns: unit_ns.max(0.0),
        }
    }

    pub fn ms(&self) -> f64 {
        self.count * self.unit_ns / 1e6
    }
}

/// The ladder settled against one phase.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Settled {
    pub explained_ms: f64,
    pub residual_ms: f64,
    pub explained_ratio: f64,
}

/// Sums the rungs and sets them against `phase_ms`, the CPU time of the
/// untraced phase (its wall time when it runs on one thread).
pub fn settle(rungs: &[Rung], phase_ms: f64) -> Settled {
    let explained_ms: f64 = rungs.iter().map(Rung::ms).sum();
    Settled {
        explained_ms,
        residual_ms: phase_ms - explained_ms,
        explained_ratio: if phase_ms > 0.0 {
            explained_ms / phase_ms
        } else {
            0.0
        },
    }
}

/// Prints the ladder, one rung per line, to stderr.
pub fn show(rungs: &[Rung], phase_ms: f64) {
    for r in rungs {
        eprintln!(
            "ladder {:<16} {:>14.0} x {:>10.1} ns = {:>10.3} ms ({:>5.1}%)",
            r.name,
            r.count,
            r.unit_ns,
            r.ms(),
            100.0 * r.ms() / phase_ms.max(f64::MIN_POSITIVE)
        );
    }
    let s = settle(rungs, phase_ms);
    eprintln!(
        "ladder phase {phase_ms:.3} ms, explained {:.3} ms, residual {:.3} ms",
        s.explained_ms, s.residual_ms
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_arithmetic_on_a_synthetic_phase() {
        let rungs = [
            Rung::new("a", 1_000.0, 100.0),   // 0.1 ms
            Rung::new("b", 50_000.0, 4.0),    // 0.2 ms
            Rung::new("clamped", 10.0, -5.0), // negative costs count as 0
        ];
        let s = settle(&rungs, 0.5);
        assert!((s.explained_ms - 0.3).abs() < 1e-12);
        assert!((s.residual_ms - 0.2).abs() < 1e-12);
        assert!((s.explained_ratio - 0.6).abs() < 1e-12);
        assert_eq!(settle(&[], 0.0).explained_ratio, 0.0);
    }
}
