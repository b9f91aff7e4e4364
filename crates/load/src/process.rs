//! Arrival processes: seeded, deterministic streams of arrival instants.
//!
//! Every process is a *generator*: [`ArrivalGen::next_arrival`] produces the
//! next instant lazily, so the memory footprint of a load plan is bounded by
//! the number of arrivals currently pending in the driver, never by the
//! modelled client population or the plan horizon.

use cb_sim::{DetRng, SimDuration, SimTime};

/// The arrival-process family and its parameters.
///
/// Rates are in arrivals per virtual second. All processes are deterministic
/// given a seed: the same `(process, seed)` pair yields a byte-identical
/// arrival stream.
#[derive(Clone, Debug, PartialEq)]
pub enum ArrivalProcess {
    /// Homogeneous Poisson process: exponential inter-arrival times.
    Poisson {
        /// Mean arrival rate (ops per second).
        rate: f64,
    },
    /// Markov-modulated on/off process: the source alternates between an
    /// "on" state (rate `rate_on`) and an "off" state (rate `rate_off`),
    /// with exponentially distributed holding times.
    Bursty {
        /// Arrival rate while the source is on (ops per second).
        rate_on: f64,
        /// Arrival rate while the source is off (ops per second, may be 0).
        rate_off: f64,
        /// Mean holding time of the on state.
        mean_on: SimDuration,
        /// Mean holding time of the off state.
        mean_off: SimDuration,
    },
    /// Non-homogeneous Poisson with a sinusoidal rate — a compressed diurnal
    /// cycle: `rate(t) = base * (1 + amplitude * sin(2πt / period))`.
    Diurnal {
        /// Mean arrival rate (ops per second).
        base: f64,
        /// Relative swing in `[0, 1]` (1.0 means rate touches zero).
        amplitude: f64,
        /// Length of one full cycle.
        period: SimDuration,
    },
    /// Replay a recorded trace of arrival offsets (sorted at construction).
    Trace {
        /// Arrival instants as offsets from the start of the run.
        offsets: Vec<SimDuration>,
    },
}

impl ArrivalProcess {
    /// A homogeneous Poisson process at `rate` ops/s.
    pub fn poisson(rate: f64) -> Self {
        ArrivalProcess::Poisson { rate }
    }

    /// Validate parameters, returning a human-readable error for CLI use.
    pub(crate) fn validate(&self) -> Result<(), String> {
        match self {
            ArrivalProcess::Poisson { rate } => {
                if !rate.is_finite() || *rate <= 0.0 {
                    return Err(format!("poisson rate must be positive, got {rate}"));
                }
            }
            ArrivalProcess::Bursty {
                rate_on,
                rate_off,
                mean_on,
                mean_off,
            } => {
                if !rate_on.is_finite() || *rate_on <= 0.0 {
                    return Err(format!("bursty on-rate must be positive, got {rate_on}"));
                }
                if !rate_off.is_finite() || *rate_off < 0.0 {
                    return Err(format!("bursty off-rate must be >= 0, got {rate_off}"));
                }
                if mean_on.is_zero() || mean_off.is_zero() {
                    return Err("bursty holding times must be positive".into());
                }
            }
            ArrivalProcess::Diurnal {
                base,
                amplitude,
                period,
            } => {
                if !base.is_finite() || *base <= 0.0 {
                    return Err(format!("diurnal base rate must be positive, got {base}"));
                }
                if !(0.0..=1.0).contains(amplitude) {
                    return Err(format!(
                        "diurnal amplitude must be in [0,1], got {amplitude}"
                    ));
                }
                if period.is_zero() {
                    return Err("diurnal period must be positive".into());
                }
            }
            ArrivalProcess::Trace { offsets } => {
                if offsets.is_empty() {
                    return Err("trace has no arrivals".into());
                }
            }
        }
        // The fastest rate the nanosecond clock can space out is one arrival
        // per nanosecond: above it every gap truncates to zero and the
        // stream never leaves its first instant.
        let peak = match self {
            ArrivalProcess::Poisson { rate } => *rate,
            ArrivalProcess::Bursty {
                rate_on, rate_off, ..
            } => rate_on.max(*rate_off),
            ArrivalProcess::Diurnal {
                base, amplitude, ..
            } => base * (1.0 + amplitude),
            ArrivalProcess::Trace { .. } => 0.0,
        };
        if peak > 1e9 {
            return Err(format!(
                "arrival rate must be at most 1e9/s (one arrival per clock nanosecond), \
                 got {peak:e}/s at its peak"
            ));
        }
        Ok(())
    }

    /// Parse a CLI-style process spec.
    ///
    /// Grammar (rates accept an optional `/s` suffix, durations accept
    /// `s`/`ms`/`us` suffixes and default to seconds):
    ///
    /// * `poisson:5000/s`
    /// * `bursty:8000/s,200/s,2s,1s` — on-rate, off-rate, mean-on, mean-off
    /// * `diurnal:3000/s,0.8,60s` — base rate, amplitude, period
    /// * `trace:0.1,0.25,0.5` — arrival offsets in seconds
    pub(crate) fn parse(spec: &str) -> Result<Self, String> {
        let (kind, rest) = spec
            .split_once(':')
            .ok_or_else(|| format!("expected <kind>:<params>, got {spec:?}"))?;
        let proc = match kind {
            "poisson" => ArrivalProcess::Poisson {
                rate: parse_rate(rest)?,
            },
            "bursty" => {
                let parts: Vec<&str> = rest.split(',').collect();
                if parts.len() != 4 {
                    return Err(format!(
                        "bursty needs on-rate,off-rate,mean-on,mean-off, got {rest:?}"
                    ));
                }
                ArrivalProcess::Bursty {
                    rate_on: parse_rate(parts[0])?,
                    rate_off: parse_rate(parts[1])?,
                    mean_on: parse_duration(parts[2])?,
                    mean_off: parse_duration(parts[3])?,
                }
            }
            "diurnal" => {
                let parts: Vec<&str> = rest.split(',').collect();
                if parts.len() != 3 {
                    return Err(format!("diurnal needs base,amplitude,period, got {rest:?}"));
                }
                ArrivalProcess::Diurnal {
                    base: parse_rate(parts[0])?,
                    amplitude: parts[1]
                        .parse()
                        .map_err(|_| format!("bad amplitude {:?}", parts[1]))?,
                    period: parse_duration(parts[2])?,
                }
            }
            "trace" => {
                let mut offsets = Vec::new();
                for p in rest.split(',') {
                    offsets.push(parse_duration(p)?);
                }
                offsets.sort_unstable();
                ArrivalProcess::Trace { offsets }
            }
            other => {
                return Err(format!(
                    "unknown arrival process {other:?} (expected poisson|bursty|diurnal|trace)"
                ))
            }
        };
        proc.validate()?;
        Ok(proc)
    }
}

/// Parse `5000/s` or a bare number as ops per second.
fn parse_rate(s: &str) -> Result<f64, String> {
    let body = s.strip_suffix("/s").unwrap_or(s);
    let rate: f64 = body.parse().map_err(|_| format!("bad rate {s:?}"))?;
    Ok(rate)
}

/// Parse `2s`, `500ms`, `250us`, or a bare number of seconds: finite and
/// not negative.
pub(crate) fn parse_duration(s: &str) -> Result<SimDuration, String> {
    let (body, scale) = if let Some(b) = s.strip_suffix("ms") {
        (b, 1e-3)
    } else if let Some(b) = s.strip_suffix("us") {
        (b, 1e-6)
    } else if let Some(b) = s.strip_suffix('s') {
        (b, 1.0)
    } else {
        (s, 1.0)
    };
    let v: f64 = body.parse().map_err(|_| format!("bad duration {s:?}"))?;
    if !v.is_finite() {
        return Err(format!("{s:?} is not a finite duration"));
    }
    if v < 0.0 {
        return Err(format!("negative duration {s:?}"));
    }
    Ok(SimDuration::from_secs_f64(v * scale))
}

/// A seeded generator producing the arrival stream of an [`ArrivalProcess`].
///
/// The generator holds O(1) state (plus the trace vector for replay); the
/// next arrival is computed on demand.
#[derive(Clone, Debug)]
pub struct ArrivalGen {
    process: ArrivalProcess,
    rng: DetRng,
    /// Last emitted arrival instant (the generator clock).
    now: SimTime,
    /// Bursty-state: are we in the on state, and until when.
    state_on: bool,
    state_until: SimTime,
    /// Trace cursor.
    cursor: usize,
}

impl ArrivalGen {
    /// A generator for `process` seeded with `seed`. Panics if the process
    /// fails `ArrivalProcess::validate`.
    pub fn new(process: ArrivalProcess, seed: u64) -> Self {
        process.validate().expect("invalid arrival process");
        let mut rng = DetRng::seeded(seed);
        let (state_on, state_until) = match &process {
            ArrivalProcess::Bursty { mean_on, .. } => {
                // Start in the on state with a fresh holding time.
                (true, SimTime::ZERO + exp_duration(&mut rng, *mean_on))
            }
            _ => (true, SimTime::MAX),
        };
        ArrivalGen {
            process,
            rng,
            now: SimTime::ZERO,
            state_on,
            state_until,
            cursor: 0,
        }
    }

    /// The next arrival instant, strictly increasing (except for traces with
    /// duplicate offsets, which replay verbatim). Returns `None` only for a
    /// finished trace.
    pub fn next_arrival(&mut self) -> Option<SimTime> {
        match &self.process {
            ArrivalProcess::Poisson { rate } => {
                let dt = exp_interval(&mut self.rng, *rate);
                self.now += dt;
                Some(self.now)
            }
            ArrivalProcess::Bursty {
                rate_on,
                rate_off,
                mean_on,
                mean_off,
            } => {
                let (rate_on, rate_off) = (*rate_on, *rate_off);
                let (mean_on, mean_off) = (*mean_on, *mean_off);
                loop {
                    let rate = if self.state_on { rate_on } else { rate_off };
                    if rate > 0.0 {
                        // The exponential is memoryless, so discarding a
                        // candidate that crosses the state boundary and
                        // re-drawing in the next state is statistically
                        // exact.
                        let cand = self.now + exp_interval(&mut self.rng, rate);
                        if cand <= self.state_until {
                            self.now = cand;
                            return Some(self.now);
                        }
                    }
                    self.now = self.state_until;
                    self.state_on = !self.state_on;
                    let mean = if self.state_on { mean_on } else { mean_off };
                    self.state_until = self.now + exp_duration(&mut self.rng, mean);
                }
            }
            ArrivalProcess::Diurnal {
                base,
                amplitude,
                period,
            } => {
                // Thinning (Lewis-Shedler): candidates at the peak rate,
                // accepted with probability rate(t)/rate_max.
                let rate_max = base * (1.0 + amplitude);
                let (base, amplitude) = (*base, *amplitude);
                let period_s = period.as_secs_f64();
                loop {
                    self.now += exp_interval(&mut self.rng, rate_max);
                    let t = self.now.as_secs_f64();
                    let rate = base
                        * (1.0 + amplitude * (2.0 * std::f64::consts::PI * t / period_s).sin());
                    if self.rng.unit() * rate_max < rate.max(0.0) {
                        return Some(self.now);
                    }
                }
            }
            ArrivalProcess::Trace { offsets } => {
                let off = *offsets.get(self.cursor)?;
                self.cursor += 1;
                self.now = SimTime::ZERO + off;
                Some(self.now)
            }
        }
    }
}

/// Exponential inter-arrival interval for a process at `rate` ops/s.
fn exp_interval(rng: &mut DetRng, rate: f64) -> SimDuration {
    debug_assert!(rate > 0.0);
    let u = rng.unit();
    SimDuration::from_secs_f64(-(1.0 - u).ln() / rate)
}

/// Exponentially distributed duration with the given mean.
fn exp_duration(rng: &mut DetRng, mean: SimDuration) -> SimDuration {
    let u = rng.unit();
    mean.mul_f64(-(1.0 - u).ln())
}

/// An [`ArrivalGen`] filtered through a [`crate::PhasePlan`]: arrivals during
/// ramp-up are thinned to the plan's current rate scale, and the stream ends
/// at the plan horizon.
///
/// Thinning draws come from a dedicated RNG stream so the underlying arrival
/// stream stays byte-identical whether or not phases are applied.
#[derive(Clone, Debug)]
pub struct PhasedArrivals {
    gen: ArrivalGen,
    plan: crate::PhasePlan,
    thin_rng: DetRng,
}

impl PhasedArrivals {
    /// Wrap `gen` with the phase plan; `seed` drives the thinning stream.
    pub fn new(gen: ArrivalGen, plan: crate::PhasePlan, seed: u64) -> Self {
        PhasedArrivals {
            gen,
            plan,
            thin_rng: DetRng::seeded(seed ^ 0xD1A2_3F4B_5C6D_7E8F),
        }
    }

    /// Next admitted arrival, or `None` once the plan horizon is reached.
    pub fn next_arrival(&mut self) -> Option<SimTime> {
        let horizon = SimTime::ZERO + self.plan.total();
        loop {
            let at = self.gen.next_arrival()?;
            if at >= horizon {
                return None;
            }
            let scale = self.plan.rate_scale(at);
            if scale >= 1.0 || self.thin_rng.unit() < scale {
                return Some(at);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collect(mut g: ArrivalGen, n: usize) -> Vec<u64> {
        (0..n)
            .map_while(|_| g.next_arrival().map(|t| t.as_nanos()))
            .collect()
    }

    #[test]
    fn poisson_is_deterministic_per_seed() {
        let a = collect(ArrivalGen::new(ArrivalProcess::poisson(500.0), 42), 1000);
        let b = collect(ArrivalGen::new(ArrivalProcess::poisson(500.0), 42), 1000);
        assert_eq!(a, b);
        let c = collect(ArrivalGen::new(ArrivalProcess::poisson(500.0), 43), 1000);
        assert_ne!(a, c);
    }

    #[test]
    fn poisson_arrivals_are_strictly_increasing() {
        let times = collect(ArrivalGen::new(ArrivalProcess::poisson(1000.0), 7), 5000);
        for w in times.windows(2) {
            assert!(w[0] < w[1], "non-monotone arrivals {w:?}");
        }
    }

    #[test]
    fn bursty_respects_state_structure() {
        let p = ArrivalProcess::Bursty {
            rate_on: 1000.0,
            rate_off: 0.0,
            mean_on: SimDuration::from_millis(100),
            mean_off: SimDuration::from_millis(100),
        };
        let times = collect(ArrivalGen::new(p.clone(), 3), 2000);
        assert!(!times.is_empty());
        for w in times.windows(2) {
            assert!(w[0] < w[1]);
        }
        // With off-rate 0 and equal holding times the realized rate should be
        // roughly half the on-rate.
        let span_s = (*times.last().unwrap() - times[0]) as f64 / 1e9;
        let rate = times.len() as f64 / span_s;
        assert!(
            (300.0..700.0).contains(&rate),
            "realized bursty rate {rate} out of range"
        );
    }

    #[test]
    fn diurnal_rate_oscillates() {
        let p = ArrivalProcess::Diurnal {
            base: 2000.0,
            amplitude: 0.9,
            period: SimDuration::from_secs(10),
        };
        let mut g = ArrivalGen::new(p, 11);
        // Count arrivals in the peak quarter vs the trough quarter of the
        // first cycle: sin peaks in [0, T/2), troughs in [T/2, T).
        let (mut peak, mut trough) = (0u64, 0u64);
        while let Some(t) = g.next_arrival() {
            if t >= SimTime::from_secs(10) {
                break;
            }
            if t < SimTime::from_secs(5) {
                peak += 1;
            } else {
                trough += 1;
            }
        }
        assert!(
            peak > 2 * trough,
            "diurnal peak {peak} not dominating trough {trough}"
        );
    }

    #[test]
    fn trace_replays_sorted_offsets() {
        let p = ArrivalProcess::parse("trace:0.5,0.1,0.3").unwrap();
        let times = collect(ArrivalGen::new(p, 0), 10);
        assert_eq!(
            times,
            vec![100_000_000, 300_000_000, 500_000_000],
            "trace must replay sorted and then end"
        );
    }

    #[test]
    fn parse_round_trips() {
        assert_eq!(
            ArrivalProcess::parse("poisson:5000/s").unwrap(),
            ArrivalProcess::Poisson { rate: 5000.0 }
        );
        assert_eq!(
            ArrivalProcess::parse("bursty:8000/s,200/s,2s,500ms").unwrap(),
            ArrivalProcess::Bursty {
                rate_on: 8000.0,
                rate_off: 200.0,
                mean_on: SimDuration::from_secs(2),
                mean_off: SimDuration::from_millis(500),
            }
        );
        assert_eq!(
            ArrivalProcess::parse("diurnal:3000,0.8,60s").unwrap(),
            ArrivalProcess::Diurnal {
                base: 3000.0,
                amplitude: 0.8,
                period: SimDuration::from_secs(60),
            }
        );
        assert!(ArrivalProcess::parse("poisson:-5/s").is_err());
        // Faster than one arrival per clock nanosecond: every gap would
        // truncate to zero. The limit itself still parses.
        for spec in
            "poisson:1e12/s bursty:2e9,0,1s,1s bursty:1,2e9,1s,1s diurnal:6e8,0.8,60s".split(' ')
        {
            let err = ArrivalProcess::parse(spec).unwrap_err();
            assert!(err.contains("at most 1e9/s"), "{spec}: {err}");
        }
        assert!(ArrivalProcess::parse("poisson:1e9/s").is_ok());
        assert!(ArrivalProcess::parse("diurnal:5e8,1,60s").is_ok());
        assert!(ArrivalProcess::parse("diurnal:100,1.5,60s").is_err());
        assert!(ArrivalProcess::parse("nope:1").is_err());
        assert!(ArrivalProcess::parse("poisson").is_err());
    }

    #[test]
    fn non_finite_durations_are_refused() {
        // NaN used to hold for 0 s and infinity for u64::MAX ns.
        for spec in [
            "bursty:10,1,inf,1s",
            "bursty:10,1,1s,nanms",
            "diurnal:100,0.5,inf",
            "trace:0.1,nan",
        ] {
            let e = ArrivalProcess::parse(spec).unwrap_err();
            assert!(e.contains("not a finite duration"), "{spec}: {e}");
        }
    }

    #[test]
    fn poisson_empirical_rate_is_within_ci_bounds() {
        // Inter-arrival gaps are iid Exp(λ): the sample-mean gap over N
        // draws has relative standard error 1/√N, so the empirical rate of
        // N = 100_000 arrivals must land inside the 99.99% confidence band
        // λ · (1 ± 3.9/√N) ≈ λ ± 1.24% — far tighter than an eyeball check,
        // tight enough to catch a wrong λ scaling (e.g. ms-vs-s mixups).
        for (rate, seed) in [(500.0_f64, 11_u64), (5000.0, 12), (80_000.0, 13)] {
            let n = 100_000usize;
            let times = collect(ArrivalGen::new(ArrivalProcess::poisson(rate), seed), n);
            assert_eq!(times.len(), n);
            let span_s = *times.last().unwrap() as f64 / 1e9;
            let empirical = n as f64 / span_s;
            let half_width = 3.9 / (n as f64).sqrt();
            assert!(
                (empirical - rate).abs() / rate < half_width,
                "λ={rate}: empirical {empirical:.1}/s outside ±{:.2}%",
                half_width * 100.0
            );
        }
    }

    proptest::proptest! {
        /// Byte-identity per seed, for every process shape: replaying the
        /// same (process, seed) pair reproduces the exact nanosecond arrival
        /// sequence, and any different seed diverges somewhere in the first
        /// 512 arrivals.
        #[test]
        fn any_process_is_byte_identical_per_seed(
            seed in 0u64..u64::MAX,
            shape in 0usize..3,
            rate in 1.0f64..50_000.0,
        ) {
            let process = match shape {
                0 => ArrivalProcess::poisson(rate),
                1 => ArrivalProcess::Bursty {
                    rate_on: rate,
                    rate_off: rate / 10.0,
                    mean_on: SimDuration::from_millis(50),
                    mean_off: SimDuration::from_millis(20),
                },
                _ => ArrivalProcess::Diurnal {
                    base: rate,
                    amplitude: 0.5,
                    period: SimDuration::from_secs(10),
                },
            };
            let a = collect(ArrivalGen::new(process.clone(), seed), 512);
            let b = collect(ArrivalGen::new(process.clone(), seed), 512);
            proptest::prop_assert_eq!(&a, &b);
            let c = collect(ArrivalGen::new(process, seed ^ 1), 512);
            proptest::prop_assert_ne!(&a, &c);
        }
    }
}
