//! Keyspaces, request lines, and the answer oracle.
//!
//! A key rank maps to one plan query: a kind from a fixed weighted mix
//! and a light level unique to the rank. Before any timing starts, the
//! oracle computes every key's exact answer with `planner::answer`; each
//! `ok` response's `result` must then match it byte for byte.

use crate::Ops;
use hems_obs::clock::monotonic_ns;
use hems_serve::json::{self, Value};
use hems_serve::planner::{self, PlanJob};
use hems_serve::proto::{QueryKind, Request, ScenarioSpec};
use hems_sim::WorkerPool;
use hems_units::XorShiftRng;

/// The plan mix, per 50 keys. Weighted by the measured per-solve costs
/// (0.14, 0.16, 13.4, 1.3 and 0.66 ms) so that no kind takes more than
/// about half of the solver's busy time on a miss-heavy stream: bypass
/// ~38 %, sprint ~29 %, sweep_summary ~20 %, the two point queries ~13 %.
pub const MIX: [(QueryKind, usize); 5] = [
    (QueryKind::OptimalPoint, 15),
    (QueryKind::Mep, 15),
    (QueryKind::Bypass, 1),
    (QueryKind::Sprint, 8),
    (QueryKind::SweepSummary, 11),
];

/// The kind of key `rank`. A stride coprime to 50 interleaves the
/// kinds along the rank order, so a Zipf head still mixes them.
pub fn kind_for_rank(rank: usize) -> QueryKind {
    let slot = (rank % 50) * 17 % 50;
    let mut upto = 0;
    for (kind, weight) in MIX {
        upto += weight;
        if slot < upto {
            return kind;
        }
    }
    QueryKind::OptimalPoint
}

/// One plan query with its request line pre-rendered up to the id.
#[derive(Debug, Clone)]
pub struct PlanKey {
    /// What is asked.
    pub kind: QueryKind,
    /// The scenario it is asked about.
    pub spec: ScenarioSpec,
    /// The request line after `{"id":<id>,`.
    tail: String,
}

impl PlanKey {
    /// A key for `(kind, spec)`.
    pub fn new(kind: QueryKind, spec: ScenarioSpec) -> PlanKey {
        let line = Request::render_line(0, kind, Some(&spec));
        let tail = line
            .strip_prefix("{\"id\":0,")
            .expect("request lines render their id first")
            .to_string();
        PlanKey { kind, spec, tail }
    }

    /// The NDJSON request line for this key with request id `id`.
    pub fn line(&self, id: u64) -> String {
        format!("{{\"id\":{id},{}", self.tail)
    }
}

/// `size` distinct keys drawn from `seed`: kinds from [`MIX`], light
/// levels spread over `[0.3, 1.5)` by a golden-ratio sequence whose
/// phase comes from the seed (every level is feasible for every kind).
pub fn keyspace(size: usize, seed: u64) -> Vec<PlanKey> {
    const GOLDEN: f64 = 0.618_033_988_749_894_9;
    let phase = XorShiftRng::seed_from_u64(seed ^ 0x6b65_7973).next_f64();
    (0..size)
        .map(|rank| {
            let kind = kind_for_rank(rank);
            let frac = (rank as f64 * GOLDEN + phase).fract();
            let mut spec = ScenarioSpec::baseline(0.3 + 1.2 * frac);
            if kind == QueryKind::Sprint {
                spec.deadline = Some(0.02);
            }
            PlanKey::new(kind, spec)
        })
        .collect()
}

/// The fleet's plan queries: `optimal_point` at each forecast bucket
/// `i / buckets`, exactly as `hems_fleet::ServePlans` asks them.
pub fn fleet_keys(buckets: u32) -> Vec<PlanKey> {
    (1..=buckets)
        .map(|i| {
            PlanKey::new(
                QueryKind::OptimalPoint,
                ScenarioSpec::baseline(f64::from(i) / f64::from(buckets)),
            )
        })
        .collect()
}

/// Every key's exact answer, rendered, plus what each solve cost.
#[derive(Debug, Clone)]
pub struct Oracle {
    answers: Vec<Result<String, String>>,
    /// `planner::answer` wall time per key, ns.
    pub solve_ns: Vec<u64>,
}

impl Oracle {
    /// Solves every key on a `threads`-worker pool.
    pub fn compute(keys: &[PlanKey], threads: usize) -> Oracle {
        let pool = WorkerPool::new(threads);
        let jobs: Vec<_> = keys
            .iter()
            .map(|key| {
                let (kind, spec) = (key.kind, key.spec.clone());
                move || {
                    let job = PlanJob::build(kind, spec)?;
                    let start = monotonic_ns();
                    let answer = planner::answer(&job)?;
                    let ns = monotonic_ns().saturating_sub(start);
                    Ok::<_, String>((answer.render(), ns))
                }
            })
            .collect();
        let mut answers = Vec::with_capacity(keys.len());
        let mut solve_ns = Vec::with_capacity(keys.len());
        for outcome in pool.run_jobs_result(jobs) {
            match outcome {
                Ok(Ok((rendered, ns))) => {
                    answers.push(Ok(rendered));
                    solve_ns.push(ns);
                }
                Ok(Err(message)) => {
                    answers.push(Err(message));
                    solve_ns.push(0);
                }
                Err(panic) => {
                    answers.push(Err(format!("solver panicked: {}", panic.message())));
                    solve_ns.push(0);
                }
            }
        }
        Oracle { answers, solve_ns }
    }

    /// The first key the solver could not answer, as an error: a
    /// workload must consist of answerable keys only.
    ///
    /// # Errors
    ///
    /// Names the key rank and the solver's message.
    pub fn require_all_answered(&self) -> Result<(), String> {
        match self.answers.iter().position(Result::is_err) {
            None => Ok(()),
            Some(rank) => Err(format!(
                "key {rank} has no answer: {}",
                self.answers[rank].as_ref().err().map_or("", String::as_str)
            )),
        }
    }

    /// Key `rank`'s expected rendered result (`None`: unanswerable).
    pub fn expected(&self, rank: usize) -> Option<&str> {
        self.answers.get(rank)?.as_deref().ok()
    }

    /// Replaces key `rank`'s expected answer with a wrong one (the
    /// self-test's planted fault).
    pub fn plant_wrong_answer(&mut self, rank: usize) {
        if let Some(answer) = self.answers.get_mut(rank) {
            *answer = Ok("{\"planted\":true}".to_string());
        }
    }
}

/// How one request ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// `ok`, with the expected result.
    Ok,
    /// `ok`, but the result differs from the oracle's.
    Wrong,
    /// `status: error`.
    Error,
    /// `status: overloaded`.
    Overloaded,
    /// No response: IO failure or timeout.
    Transport,
}

impl Outcome {
    /// Counts this outcome into `ops`.
    pub fn tally(self, ops: &mut Ops) {
        ops.sent += 1;
        match self {
            Outcome::Ok => ops.ok += 1,
            Outcome::Wrong => {
                ops.wrong += 1;
                ops.failed += 1;
            }
            Outcome::Error | Outcome::Overloaded | Outcome::Transport => ops.failed += 1,
        }
    }
}

/// Classifies the response to request `id`, whose `result` must be
/// `expected` (`None`: the request had no answer, so any `ok` is wrong).
/// The router relays backend lines verbatim, so the result is compared
/// as the exact bytes the server spliced in.
pub fn classify(response: &str, id: u64, expected: Option<&str>) -> Outcome {
    let head = format!("{{\"id\":{id},\"status\":\"ok\",\"cached\":");
    if let Some(rest) = response.strip_prefix(head.as_str()) {
        let result = rest
            .strip_prefix("true,\"result\":")
            .or_else(|| rest.strip_prefix("false,\"result\":"));
        return match (result.and_then(|r| r.strip_suffix('}')), expected) {
            (Some(got), Some(want)) if got == want => Outcome::Ok,
            _ => Outcome::Wrong,
        };
    }
    let status = json::parse(response)
        .ok()
        .and_then(|v| v.get("status").and_then(Value::as_str).map(str::to_string));
    match status.as_deref() {
        Some("overloaded") => Outcome::Overloaded,
        Some("error") => Outcome::Error,
        _ => Outcome::Wrong,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_mix_has_every_kind_in_its_weights() {
        for (kind, weight) in MIX {
            let n = (0..50).filter(|&r| kind_for_rank(r) == kind).count();
            assert_eq!(n, weight, "{kind:?}");
        }
    }

    #[test]
    fn lines_carry_their_id_and_parse_back() {
        let keys = keyspace(60, 3);
        for (id, key) in keys.iter().enumerate() {
            let request = Request::parse_line(&key.line(id as u64)).expect("parses");
            assert_eq!(request.id, Value::Num(id as f64));
            assert_eq!(request.kind, key.kind);
            assert_eq!(request.scenario.as_ref(), Some(&key.spec));
        }
    }

    #[test]
    fn keys_are_distinct_and_seeded() {
        let a = keyspace(200, 1);
        let b = keyspace(200, 2);
        let mut levels: Vec<u64> = a.iter().map(|k| k.spec.irradiance.to_bits()).collect();
        levels.sort_unstable();
        levels.dedup();
        assert_eq!(levels.len(), 200);
        assert_ne!(a[0].spec.irradiance, b[0].spec.irradiance);
    }

    #[test]
    fn classification_compares_result_bytes() {
        let ok = "{\"id\":9,\"status\":\"ok\",\"cached\":true,\"result\":{\"a\":1}}";
        assert_eq!(classify(ok, 9, Some("{\"a\":1}")), Outcome::Ok);
        assert_eq!(classify(ok, 9, Some("{\"a\":2}")), Outcome::Wrong);
        assert_eq!(classify(ok, 8, Some("{\"a\":1}")), Outcome::Wrong);
        let refused = "{\"id\":9,\"status\":\"overloaded\",\"error\":\"full\"}";
        assert_eq!(classify(refused, 9, None), Outcome::Overloaded);
        let error = "{\"id\":9,\"status\":\"error\",\"error\":\"dark\"}";
        assert_eq!(classify(error, 9, None), Outcome::Error);
    }
}
