//! The wire protocol: newline-delimited JSON requests and responses.
//!
//! One request per line, one response per line, matched by an `id` field
//! the server echoes back verbatim. One connection's requests are
//! answered in order; clients still correlate by id, the one contract
//! that holds across a router and retries.
//!
//! ## Request shape
//!
//! ```json
//! {"id": 7, "query": "optimal_point", "scenario": {
//!     "irradiance": 0.5, "regulator": "sc",
//!     "policy": {"kind": "fixed", "vdd": 0.55, "clock_fraction": 1.0},
//!     "capacitance": 3.3e-5, "v_initial": 1.1,
//!     "duration": 0.04, "deadline": 0.02}}
//! ```
//!
//! Query kinds: `optimal_point`, `mep`, `bypass`, `sprint`,
//! `sweep_summary` (scenario-backed, cacheable), plus the service queries
//! `stats` and `shutdown` (no scenario, never cached). Every scenario
//! field except `irradiance` has a paper-baseline default.
//!
//! ## Response shape
//!
//! ```json
//! {"id": 7, "status": "ok", "cached": false, "result": {...}}
//! {"id": 7, "status": "error", "error": "..."}
//! {"id": 7, "status": "overloaded", "error": "..."}
//! ```
//!
//! `overloaded` is the admission-control verdict: the request was *not*
//! accepted and the client should back off and retry; `error` means the
//! request was understood but unanswerable (malformed scenario, infeasible
//! plan).

use crate::json::{parse, Value};
use hems_core::cachekey::KeyHasher;
use hems_regulator::{AnyRegulator, BuckRegulator, Ldo, Regulator, ScRegulator};
use hems_sim::sweep::SweepPolicy;
use hems_sim::{SimError, SystemConfig};
use hems_storage::Capacitor;
use hems_units::{Farads, Seconds, Volts};

/// What a request asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryKind {
    /// The holistic optimal operating point (paper §IV, eqs. 1–4 plus the
    /// joint rail/supply refinement).
    OptimalPoint,
    /// The system minimum-energy point (paper §V, eq. 5).
    Mep,
    /// The low-light bypass decision (paper §IV-B, Fig. 7a).
    Bypass,
    /// The two-phase sprint schedule under a deadline (paper §VI-B).
    Sprint,
    /// A full transient sweep of the scenario, summarized.
    SweepSummary,
    /// Service counters and latency percentiles (not cached).
    Stats,
    /// Full telemetry snapshot: the process-global and per-server
    /// `hems_obs` registries merged and rendered as JSON (not cached).
    Metrics,
    /// Graceful shutdown: drain in-flight work, then stop (not cached).
    Shutdown,
}

impl QueryKind {
    /// Parses the wire name of a query kind.
    pub fn from_wire(name: &str) -> Option<QueryKind> {
        Some(match name {
            "optimal_point" => QueryKind::OptimalPoint,
            "mep" => QueryKind::Mep,
            "bypass" => QueryKind::Bypass,
            "sprint" => QueryKind::Sprint,
            "sweep_summary" => QueryKind::SweepSummary,
            "stats" => QueryKind::Stats,
            "metrics" => QueryKind::Metrics,
            "shutdown" => QueryKind::Shutdown,
            _ => return None,
        })
    }

    /// The wire name (also the cache-key tag).
    pub fn as_wire(self) -> &'static str {
        match self {
            QueryKind::OptimalPoint => "optimal_point",
            QueryKind::Mep => "mep",
            QueryKind::Bypass => "bypass",
            QueryKind::Sprint => "sprint",
            QueryKind::SweepSummary => "sweep_summary",
            QueryKind::Stats => "stats",
            QueryKind::Metrics => "metrics",
            QueryKind::Shutdown => "shutdown",
        }
    }

    /// `true` for the scenario-backed, cacheable plan queries.
    pub fn needs_scenario(self) -> bool {
        !matches!(
            self,
            QueryKind::Stats | QueryKind::Metrics | QueryKind::Shutdown
        )
    }
}

/// The regulator topology named by a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RegulatorChoice {
    /// Switched-capacitor converter (the paper's headline topology).
    Sc,
    /// Linear regulator.
    Ldo,
    /// Inductive buck converter.
    Buck,
}

impl RegulatorChoice {
    fn from_wire(name: &str) -> Option<RegulatorChoice> {
        Some(match name {
            "sc" => RegulatorChoice::Sc,
            "ldo" => RegulatorChoice::Ldo,
            "buck" => RegulatorChoice::Buck,
            _ => return None,
        })
    }

    fn build(self) -> AnyRegulator {
        match self {
            RegulatorChoice::Sc => AnyRegulator::from(ScRegulator::paper_65nm()),
            RegulatorChoice::Ldo => AnyRegulator::from(Ldo::paper_65nm()),
            RegulatorChoice::Buck => AnyRegulator::from(BuckRegulator::paper_65nm()),
        }
    }
}

/// The control policy named by a request.
#[derive(Debug, Clone, PartialEq)]
pub enum PolicySpec {
    /// Fixed supply voltage at a clock fraction.
    Fixed {
        /// Supply setpoint, volts.
        vdd: f64,
        /// Fraction of the maximum clock, `(0, 1]`.
        clock_fraction: f64,
    },
    /// Comparator-driven duty cycling.
    Duty {
        /// Resume threshold, volts.
        v_run: f64,
        /// Stop threshold, volts.
        v_stop: f64,
        /// Supply while running, volts.
        vdd: f64,
    },
}

impl PolicySpec {
    fn build(&self) -> SweepPolicy {
        match *self {
            PolicySpec::Fixed {
                vdd,
                clock_fraction,
            } => SweepPolicy::FixedVoltage {
                vdd: Volts::new(vdd),
                clock_fraction,
            },
            PolicySpec::Duty { v_run, v_stop, vdd } => SweepPolicy::DutyCycle {
                v_run: Volts::new(v_run),
                v_stop: Volts::new(v_stop),
                vdd: Volts::new(vdd),
            },
        }
    }
}

/// The scenario a plan query is about. Every field but `irradiance` is
/// optional on the wire, defaulting to the paper's Fig. 10 system.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Light level as a fraction of full sun, `[0, 2]`.
    pub irradiance: f64,
    /// Storage capacitance, farads (`None` → the board capacitor).
    pub capacitance: Option<f64>,
    /// Regulator topology.
    pub regulator: RegulatorChoice,
    /// Control policy for transient queries.
    pub policy: PolicySpec,
    /// Initial solar-node voltage, volts.
    pub v_initial: f64,
    /// Simulated duration, seconds.
    pub duration: f64,
    /// Optional deadline for sprint planning, seconds.
    pub deadline: Option<f64>,
}

impl ScenarioSpec {
    /// The paper-baseline scenario at the given light fraction.
    pub fn baseline(irradiance: f64) -> ScenarioSpec {
        ScenarioSpec {
            irradiance,
            capacitance: None,
            regulator: RegulatorChoice::Sc,
            policy: PolicySpec::Fixed {
                vdd: 0.55,
                clock_fraction: 1.0,
            },
            v_initial: 1.1,
            duration: 0.04,
            deadline: None,
        }
    }

    fn from_value(value: &Value) -> Result<ScenarioSpec, String> {
        let irradiance = value
            .get("irradiance")
            .and_then(Value::as_f64)
            .ok_or("scenario.irradiance (number) is required")?;
        let mut spec = ScenarioSpec::baseline(irradiance);
        if let Some(c) = value.get("capacitance") {
            spec.capacitance = Some(c.as_f64().ok_or("scenario.capacitance must be a number")?);
        }
        if let Some(r) = value.get("regulator") {
            let name = r.as_str().ok_or("scenario.regulator must be a string")?;
            spec.regulator = RegulatorChoice::from_wire(name)
                .ok_or_else(|| format!("unknown regulator '{name}' (sc|ldo|buck)"))?;
        }
        if let Some(p) = value.get("policy") {
            spec.policy = parse_policy(p)?;
        }
        if let Some(v) = value.get("v_initial") {
            spec.v_initial = v.as_f64().ok_or("scenario.v_initial must be a number")?;
        }
        if let Some(t) = value.get("duration") {
            spec.duration = t.as_f64().ok_or("scenario.duration must be a number")?;
        }
        if let Some(d) = value.get("deadline") {
            spec.deadline = Some(d.as_f64().ok_or("scenario.deadline must be a number")?);
        }
        Ok(spec)
    }

    /// Materializes the spec into a simulator configuration and policy.
    ///
    /// # Errors
    ///
    /// Returns a rendered error for out-of-range light levels or
    /// unrealizable capacitances.
    pub fn build(&self) -> Result<(SystemConfig, SweepPolicy), String> {
        let mut config = SystemConfig::paper_sc_system().map_err(|e| e.to_string())?;
        let g = hems_pv::Irradiance::new(self.irradiance).map_err(|e| e.to_string())?;
        config.cell.set_irradiance(g);
        config.regulator = self.regulator.build();
        if let Some(c) = self.capacitance {
            let mut capacitor = Capacitor::new(Farads::new(c), config.capacitor.v_rating())
                .map_err(|e| SimError::component("scenario capacitor", e).to_string())?;
            if let Some(r_leak) = config.capacitor.leakage_resistance() {
                capacitor = capacitor
                    .with_leakage(r_leak)
                    .map_err(|e| SimError::component("scenario capacitor", e).to_string())?;
            }
            config.capacitor = capacitor;
        }
        Ok((config, self.policy.build()))
    }

    /// The plan cache's key for `(kind, scenario)`: the one definition of
    /// a plan query's identity, shared by the cache, the router's ring and
    /// the client's idempotency id. `config` and `policy` are what
    /// [`build`](ScenarioSpec::build) returned for this spec.
    ///
    /// The key hashes the kind, the three config quantities `build`
    /// varies (cell irradiance, capacitance, regulator topology), the
    /// policy and the run fields; every other config field is the paper's
    /// Fig. 10 constant. Reading the built config rather than the spec
    /// keeps an omitted capacitance keyed as the board capacitor it
    /// builds. Irradiance and capacitance hash by their exact bits, so
    /// `-0.0` sun (rendered `g=-0% sun` in a sweep label) never shares an
    /// answer with `+0.0`.
    pub fn cache_key(&self, kind: QueryKind, config: &SystemConfig, policy: &SweepPolicy) -> u64 {
        let mut hasher = KeyHasher::new();
        hasher.write_tag(kind.as_wire());
        hasher.write_tag("irradiance");
        hasher.write_u64(config.cell.irradiance().fraction().to_bits());
        hasher.write_tag("capacitance");
        hasher.write_u64(config.capacitor.capacitance().farads().to_bits());
        hasher.write_tag("regulator");
        hasher.write_tag(config.regulator.kind().name());
        hasher.write_tag("policy");
        match *policy {
            SweepPolicy::FixedVoltage {
                vdd,
                clock_fraction,
            } => {
                hasher.write_tag("FixedVoltage");
                hasher.write_f64(vdd.volts());
                hasher.write_f64(clock_fraction);
            }
            SweepPolicy::DutyCycle { v_run, v_stop, vdd } => {
                hasher.write_tag("DutyCycle");
                hasher.write_f64(v_run.volts());
                hasher.write_f64(v_stop.volts());
                hasher.write_f64(vdd.volts());
            }
        }
        hasher.write_tag("v_initial");
        hasher.write_f64(self.v_initial);
        hasher.write_tag("duration");
        hasher.write_f64(self.duration);
        hasher.write_tag("deadline");
        match self.deadline {
            None => hasher.write_tag("none"),
            Some(d) => hasher.write_f64(d),
        }
        hasher.finish()
    }
}

fn parse_policy(value: &Value) -> Result<PolicySpec, String> {
    let kind = value
        .get("kind")
        .and_then(Value::as_str)
        .ok_or("policy.kind (string) is required")?;
    let num = |key: &str, default: Option<f64>| -> Result<f64, String> {
        match value.get(key) {
            Some(v) => v
                .as_f64()
                .ok_or_else(|| format!("policy.{key} must be a number")),
            None => default.ok_or_else(|| format!("policy.{key} (number) is required")),
        }
    };
    match kind {
        "fixed" => Ok(PolicySpec::Fixed {
            vdd: num("vdd", Some(0.55))?,
            clock_fraction: num("clock_fraction", Some(1.0))?,
        }),
        "duty" => Ok(PolicySpec::Duty {
            v_run: num("v_run", Some(1.0))?,
            v_stop: num("v_stop", Some(0.8))?,
            vdd: num("vdd", Some(0.55))?,
        }),
        other => Err(format!("unknown policy kind '{other}' (fixed|duty)")),
    }
}

/// One parsed request line.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// The client's correlation id, echoed back verbatim.
    pub id: Value,
    /// What is being asked.
    pub kind: QueryKind,
    /// The scenario, for plan queries.
    pub scenario: Option<ScenarioSpec>,
}

impl Request {
    /// Parses one request line.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message (already suitable for an `error`
    /// response) on malformed JSON or a semantically invalid request.
    pub fn parse_line(line: &str) -> Result<Request, (Value, String)> {
        let value = parse(line).map_err(|e| (Value::Null, e.to_string()))?;
        let id = value.get("id").cloned().unwrap_or(Value::Null);
        let kind_name = value
            .get("query")
            .and_then(Value::as_str)
            .ok_or_else(|| (id.clone(), "request.query (string) is required".to_string()))?;
        let kind = QueryKind::from_wire(kind_name).ok_or_else(|| {
            (
                id.clone(),
                format!(
                    "unknown query '{kind_name}' \
                     (optimal_point|mep|bypass|sprint|sweep_summary|stats|metrics|shutdown)"
                ),
            )
        })?;
        let scenario = if kind.needs_scenario() {
            let s = value
                .get("scenario")
                .ok_or_else(|| (id.clone(), format!("query '{kind_name}' needs a scenario")))?;
            Some(ScenarioSpec::from_value(s).map_err(|e| (id.clone(), e))?)
        } else {
            None
        };
        Ok(Request { id, kind, scenario })
    }

    /// Renders a request line (used by clients and benches).
    pub fn render_line(id: i64, kind: QueryKind, scenario: Option<&ScenarioSpec>) -> String {
        Request::render_line_with_id(&Value::Num(id as f64), kind, scenario)
    }

    /// [`render_line`](Request::render_line) with an arbitrary JSON id —
    /// the retrying client correlates by its 64-bit cache key, which does
    /// not fit losslessly in a JSON number, so it sends the key as a hex
    /// string instead.
    pub fn render_line_with_id(
        id: &Value,
        kind: QueryKind,
        scenario: Option<&ScenarioSpec>,
    ) -> String {
        let mut fields = vec![
            ("id".to_string(), id.clone()),
            ("query".to_string(), Value::str(kind.as_wire())),
        ];
        if let Some(spec) = scenario {
            let mut s = vec![("irradiance".to_string(), Value::Num(spec.irradiance))];
            if let Some(c) = spec.capacitance {
                s.push(("capacitance".to_string(), Value::Num(c)));
            }
            let reg = match spec.regulator {
                RegulatorChoice::Sc => "sc",
                RegulatorChoice::Ldo => "ldo",
                RegulatorChoice::Buck => "buck",
            };
            s.push(("regulator".to_string(), Value::str(reg)));
            let policy = match spec.policy {
                PolicySpec::Fixed {
                    vdd,
                    clock_fraction,
                } => Value::obj(vec![
                    ("kind", Value::str("fixed")),
                    ("vdd", Value::Num(vdd)),
                    ("clock_fraction", Value::Num(clock_fraction)),
                ]),
                PolicySpec::Duty { v_run, v_stop, vdd } => Value::obj(vec![
                    ("kind", Value::str("duty")),
                    ("v_run", Value::Num(v_run)),
                    ("v_stop", Value::Num(v_stop)),
                    ("vdd", Value::Num(vdd)),
                ]),
            };
            s.push(("policy".to_string(), policy));
            s.push(("v_initial".to_string(), Value::Num(spec.v_initial)));
            s.push(("duration".to_string(), Value::Num(spec.duration)));
            if let Some(d) = spec.deadline {
                s.push(("deadline".to_string(), Value::Num(d)));
            }
            fields.push(("scenario".to_string(), Value::Obj(s)));
        }
        Value::Obj(fields).render()
    }
}

/// Renders an `ok` response line (without the trailing newline).
pub fn ok_response(id: &Value, cached: bool, result: Value) -> String {
    Value::obj(vec![
        ("id", id.clone()),
        ("status", Value::str("ok")),
        ("cached", Value::Bool(cached)),
        ("result", result),
    ])
    .render()
}

/// Renders an `error` response line.
pub fn error_response(id: &Value, message: &str) -> String {
    Value::obj(vec![
        ("id", id.clone()),
        ("status", Value::str("error")),
        ("error", Value::str(message)),
    ])
    .render()
}

/// Renders a *retryable* `error` response line: the request was sound but
/// the server faulted while answering it (a worker panic). Unlike a plain
/// `error`, resubmitting the identical request may well succeed, and the
/// `retryable` flag tells clients so.
pub fn retryable_error_response(id: &Value, message: &str) -> String {
    Value::obj(vec![
        ("id", id.clone()),
        ("status", Value::str("error")),
        ("error", Value::str(message)),
        ("retryable", Value::Bool(true)),
    ])
    .render()
}

/// Renders an `overloaded` (admission-refused) response line.
pub fn overloaded_response(id: &Value, reason: &str) -> String {
    Value::obj(vec![
        ("id", id.clone()),
        ("status", Value::str("overloaded")),
        ("error", Value::str(reason)),
    ])
    .render()
}

/// The duration actually simulated/planned for: the deadline when one is
/// given, else the scenario duration.
pub fn effective_duration(spec: &ScenarioSpec) -> Seconds {
    Seconds::new(spec.deadline.unwrap_or(spec.duration))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_minimal_request_with_defaults() {
        let req =
            Request::parse_line(r#"{"id":3,"query":"mep","scenario":{"irradiance":0.5}}"#).unwrap();
        assert_eq!(req.kind, QueryKind::Mep);
        let spec = req.scenario.unwrap();
        assert_eq!(spec.irradiance, 0.5);
        assert_eq!(spec.regulator, RegulatorChoice::Sc);
        assert_eq!(spec.v_initial, 1.1);
    }

    #[test]
    fn stats_needs_no_scenario_and_plans_do() {
        assert!(Request::parse_line(r#"{"query":"stats"}"#).is_ok());
        let err = Request::parse_line(r#"{"id":9,"query":"mep"}"#).unwrap_err();
        assert_eq!(err.0, Value::Num(9.0), "id still echoed on error");
        assert!(err.1.contains("scenario"));
    }

    #[test]
    fn unknown_query_and_bad_json_are_rejected() {
        assert!(Request::parse_line(r#"{"query":"divine"}"#).is_err());
        assert!(Request::parse_line("not json").is_err());
        assert!(Request::parse_line(r#"{"query":5}"#).is_err());
    }

    #[test]
    fn render_parse_round_trips() {
        let mut spec = ScenarioSpec::baseline(0.25);
        spec.regulator = RegulatorChoice::Buck;
        spec.deadline = Some(0.02);
        spec.policy = PolicySpec::Duty {
            v_run: 1.0,
            v_stop: 0.8,
            vdd: 0.55,
        };
        let line = Request::render_line(11, QueryKind::Sprint, Some(&spec));
        let req = Request::parse_line(&line).unwrap();
        assert_eq!(req.kind, QueryKind::Sprint);
        assert_eq!(req.scenario.unwrap(), spec);
    }

    #[test]
    fn invalid_scenarios_fail_to_build() {
        let mut spec = ScenarioSpec::baseline(3.0); // beyond even concentrated sun
        assert!(spec.build().is_err());
        spec.irradiance = 0.5;
        spec.capacitance = Some(-1.0);
        assert!(spec.build().is_err());
    }

    #[test]
    fn torn_frames_error_at_every_split_and_never_panic() {
        // The chaos-proxy fault model: a frame torn mid-byte arrives as a
        // prefix (tear at the boundary) or as a prefix with garbage where
        // the rest should be (tear plus the next frame's bytes). The
        // parser must reject every such input with an error — never panic
        // — and, being stateless per line, must still parse the next
        // well-formed frame afterwards.
        let line = Request::render_line(
            77,
            QueryKind::Sprint,
            Some(&{
                let mut s = ScenarioSpec::baseline(0.42);
                s.deadline = Some(0.02);
                s
            }),
        );
        // Every strict prefix of a well-formed object is malformed.
        for split in 0..line.len() {
            let torn = &line[..split];
            if torn.is_char_boundary(split) {
                assert!(parse(torn).is_err(), "prefix {split} parsed: {torn:?}");
            }
            assert!(parse(&line).is_ok(), "intact frame must still parse");
        }
        // Seeded random tears, splices, and bit flips now live in the
        // conformance plane: the `json_frames` oracle in
        // `crates/conformance` generates them at fuzz scale, with
        // shrinking and replayable repro seeds.
    }
}
