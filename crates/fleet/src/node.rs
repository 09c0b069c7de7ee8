//! Compact per-node state machines.
//!
//! A fleet node is ~88 bytes of state (compile-time asserted ≤ 200): a
//! capacitor charge, a cursor into a shared execution [`Schedule`], and a
//! handful of accumulators. Everything heavyweight — the task chain, the
//! checkpoint policy, the NVM cost model, the weather field, the plan
//! table — is shared fleet-wide through [`NodeModel`], so 100k nodes cost
//! megabytes, not gigabytes.
//!
//! ## Exact `IntermittentRuntime` semantics, without the runtime
//!
//! [`hems_intermittent::IntermittentRuntime::execute`] spends a cycle
//! budget on an in-flight commit, then task work, committing per policy
//! at task boundaries and rolling volatile state back on brownout. For a
//! fixed `(chain, policy, nvm)` that execution is *periodic*: every chain
//! iteration runs the identical sequence of work and commit steps
//! (every policy commits at the chain boundary, so the period is exactly
//! one iteration). [`Schedule`] precomputes that sequence once;
//! [`NodeState::execute`] then replays the runtime's f64 arithmetic
//! *operation for operation* over the steps — and, when a node sits at a
//! clean period start with budget to spare, batches whole periods in
//! O(1). All step costs are integer-valued cycle counts below 2⁵³, so the
//! batch is bit-identical to walking the steps one by one (the
//! differential test against `run_observed` and the split-budget test
//! below hold this to byte equality).
//!
//! ## Crash-consistency digests
//!
//! Committed positions are the node's externally visible result. Sampled
//! nodes feed every committed `(iteration, task)` through the same
//! FNV-1a digest the chaos power surface uses (tag `commit-stream`), and
//! the campaign compares the accumulated digest against an independent
//! recomputation over `0..committed` — a gap, duplicate, or regression
//! anywhere in the batched/rolled-back bookkeeping breaks the equality.

use crate::error::FleetError;
use hems_core::cachekey::KeyHasher;
use hems_intermittent::{CheckpointPolicy, NvmModel, TaskChain};
use hems_units::Volts;

/// What one schedule step does when it completes.
#[derive(Debug, Clone, Copy, PartialEq)]
enum StepKind {
    /// Task work of the step's full cycle cost.
    Work,
    /// A checkpoint commit; completing it durably commits `positions`
    /// task completions and banks `work_cycles` of useful work.
    Commit {
        /// Task positions committed when this step completes.
        positions: u32,
        /// `work_since_commit` at completion (sum of the covered tasks'
        /// cycle costs — integer-valued).
        work_cycles: f64,
    },
}

/// One step of the periodic execution schedule.
#[derive(Debug, Clone, PartialEq)]
struct Step {
    /// Cycles this step costs (integer-valued f64).
    cycles: f64,
    kind: StepKind,
    /// Cycles of *completed* steps since the last commit completion, at
    /// entry to this step — the rollback loss excludes only in-step
    /// progress.
    lost_base: f64,
    /// Step index execution resumes at after a rollback during this step
    /// (the step right after the last completed commit).
    resume: u32,
}

/// The precomputed periodic execution schedule shared by every node with
/// the same `(chain, policy, nvm)` triple.
#[derive(Debug, Clone, PartialEq)]
pub struct Schedule {
    steps: Vec<Step>,
    chain_len: u64,
    period_cycles: f64,
    period_useful: f64,
    period_checkpoint: f64,
}

impl Schedule {
    /// Builds the schedule for one chain iteration under `policy`.
    ///
    /// # Errors
    ///
    /// Rejects [`CheckpointPolicy::OnLowVoltage`]: its commit decision
    /// depends on the instantaneous node voltage, which the analytic
    /// batching cannot replay (use the single-node runtime for it).
    pub fn new(
        chain: &TaskChain,
        policy: CheckpointPolicy,
        nvm: &NvmModel,
    ) -> Result<Schedule, FleetError> {
        policy
            .validate()
            .map_err(|e| FleetError::new("schedule: policy", e.to_string()))?;
        if matches!(policy, CheckpointPolicy::OnLowVoltage { .. }) {
            return Err(FleetError::new(
                "schedule: policy",
                "OnLowVoltage commits depend on live node voltage; \
                 the fleet's analytic batching cannot replay it",
            ));
        }
        let len = chain.len();
        let mut steps = Vec::new();
        let mut tasks_since = 0usize;
        let mut words_since = 0usize;
        let mut work_since = 0.0f64;
        // The voltage is unused by the accepted policies; any value works.
        let v_unused = Volts::new(1.0);
        for (i, task) in chain.tasks().iter().enumerate() {
            steps.push(Step {
                cycles: task.cycles().count(),
                kind: StepKind::Work,
                lost_base: 0.0,
                resume: 0,
            });
            tasks_since += 1;
            words_since += task.state_words();
            work_since += task.cycles().count();
            let at_boundary = i + 1 == len;
            if policy.should_commit(tasks_since, v_unused, at_boundary) {
                steps.push(Step {
                    cycles: nvm.commit_cost(words_since).count(),
                    kind: StepKind::Commit {
                        positions: tasks_since as u32,
                        work_cycles: work_since,
                    },
                    lost_base: 0.0,
                    resume: 0,
                });
                tasks_since = 0;
                words_since = 0;
                work_since = 0.0;
            }
        }
        // Every accepted policy commits at the chain boundary, so the
        // period ends clean: volatile state equals committed state.
        debug_assert!(matches!(
            steps.last().map(|s| &s.kind),
            Some(StepKind::Commit { .. })
        ));
        // Rollback bookkeeping: loss base and resume point per step.
        let mut acc = 0.0f64;
        let mut resume = 0u32;
        for (i, step) in steps.iter_mut().enumerate() {
            step.lost_base = acc;
            step.resume = resume;
            match step.kind {
                StepKind::Work => acc += step.cycles,
                StepKind::Commit { .. } => {
                    acc = 0.0;
                    resume = i as u32 + 1;
                }
            }
        }
        // A rollback after the final commit resumes at step 0.
        let n = steps.len() as u32;
        for step in steps.iter_mut() {
            if step.resume >= n {
                step.resume = 0;
            }
        }
        let period_cycles = steps.iter().map(|s| s.cycles).sum();
        let period_useful = steps
            .iter()
            .map(|s| match s.kind {
                StepKind::Commit { work_cycles, .. } => work_cycles,
                StepKind::Work => 0.0,
            })
            .sum();
        let period_checkpoint = steps
            .iter()
            .filter(|s| matches!(s.kind, StepKind::Commit { .. }))
            .map(|s| s.cycles)
            .sum();
        Ok(Schedule {
            steps,
            chain_len: len as u64,
            period_cycles,
            period_useful,
            period_checkpoint,
        })
    }

    /// Tasks per chain iteration.
    pub fn chain_len(&self) -> u64 {
        self.chain_len
    }

    /// Total cycles (work + checkpoints) of one clean period.
    pub fn period_cycles(&self) -> f64 {
        self.period_cycles
    }

    /// Commit steps per period.
    pub fn commits_per_period(&self) -> u32 {
        self.steps
            .iter()
            .filter(|s| matches!(s.kind, StepKind::Commit { .. }))
            .count() as u32
    }
}

/// Node lifecycle flags.
const FLAG_POWERED: u8 = 1;

/// One node's complete state. Everything else a node needs lives in the
/// shared [`NodeModel`] / [`Schedule`] / weather / plan tables.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeState {
    /// Stored capacitor energy, joules.
    pub energy: f64,
    /// Simulation time this node's state is valid at, seconds.
    pub t: f64,
    /// Cycles spent inside the current schedule step.
    step_progress: f64,
    /// Committed useful cycles.
    pub useful: f64,
    /// Cycles lost to rollbacks.
    pub wasted: f64,
    /// Cycles spent on commits that completed.
    pub checkpoint: f64,
    /// Seconds spent powered (above the brownout threshold).
    pub powered_s: f64,
    /// Durably committed task positions (`iteration * chain_len + task`).
    pub committed: u64,
    /// Power-failure replays.
    pub rollbacks: u32,
    /// The node's weather/plan region.
    pub region: u32,
    /// Current schedule step index.
    step: u16,
    /// Plan generation the node last executed under (reporting only).
    pub plan_gen: u16,
    flags: u8,
}

// The headline memory contract: a node is a compact state machine, not a
// simulation. 100k nodes ≈ 8.8 MB.
const _: () = assert!(std::mem::size_of::<NodeState>() <= 200);

/// Accumulator snapshot at the first visit of a schedule step during
/// burst-cycle batching: `(bursts done, committed, useful, wasted,
/// checkpoint, rollbacks)` — everything a repeated lap multiplies out.
type StepSnapshot = (u64, u64, f64, f64, f64, u32);

impl NodeState {
    /// A fresh, unpowered node in `region` with an empty capacitor.
    pub fn new(region: u32) -> NodeState {
        NodeState {
            energy: 0.0,
            t: 0.0,
            step_progress: 0.0,
            useful: 0.0,
            wasted: 0.0,
            checkpoint: 0.0,
            powered_s: 0.0,
            committed: 0,
            rollbacks: 0,
            region,
            step: 0,
            plan_gen: 0,
            flags: 0,
        }
    }

    /// Is the node above its power-on-reset threshold?
    pub fn powered(&self) -> bool {
        self.flags & FLAG_POWERED != 0
    }

    pub(crate) fn set_powered(&mut self, on: bool) {
        if on {
            self.flags |= FLAG_POWERED;
        } else {
            self.flags &= !FLAG_POWERED;
        }
    }

    /// Cycles executed since the last commit completion (volatile work
    /// that a brownout right now would lose) — the runtime's
    /// `in_flight_cycles`.
    pub fn in_flight(&self, schedule: &Schedule) -> f64 {
        let base = schedule
            .steps
            .get(self.step as usize)
            .map(|s| s.lost_base)
            .unwrap_or(0.0);
        base + self.step_progress
    }

    /// Fraction of executed cycles that became committed useful work —
    /// mirrors `ForwardProgress::goodput`.
    pub fn goodput(&self, schedule: &Schedule) -> f64 {
        let total = self.useful + self.wasted + self.checkpoint + self.in_flight(schedule);
        if total > 0.0 {
            self.useful / total
        } else {
            0.0
        }
    }

    /// Spends `budget` executed cycles on the schedule, mirroring
    /// `IntermittentRuntime::execute` operation for operation. Whole
    /// periods are batched in O(1) when the node is at a clean period
    /// start; `observe`, when present, receives every committed absolute
    /// position in commit order (batched positions included).
    pub fn execute(
        &mut self,
        schedule: &Schedule,
        mut budget: f64,
        mut observe: Option<&mut dyn FnMut(u64)>,
    ) {
        while budget > 0.0 {
            // Fast path: k whole periods at once whenever we sit at a
            // clean period start. Exact because every step cost is an
            // integer-valued f64 (see module docs): the remainder equals
            // what sequential subtraction would leave, and the
            // accumulator increments are k exact integer products.
            if self.step == 0 && self.step_progress == 0.0 && budget >= schedule.period_cycles {
                let k = (budget / schedule.period_cycles).floor();
                budget -= k * schedule.period_cycles;
                let positions = k as u64 * schedule.chain_len;
                if let Some(cb) = observe.as_deref_mut() {
                    for pos in self.committed..self.committed + positions {
                        cb(pos);
                    }
                }
                self.committed += positions;
                self.useful += k * schedule.period_useful;
                self.checkpoint += k * schedule.period_checkpoint;
                continue;
            }
            let Some(step) = schedule.steps.get(self.step as usize) else {
                return;
            };
            let need = step.cycles - self.step_progress;
            let spend = need.min(budget);
            budget -= spend;
            self.step_progress += spend;
            if spend < need {
                return;
            }
            // Step completes.
            self.step_progress = 0.0;
            if let StepKind::Commit {
                positions,
                work_cycles,
            } = step.kind
            {
                self.checkpoint += step.cycles;
                self.useful += work_cycles;
                if let Some(cb) = observe.as_deref_mut() {
                    for pos in self.committed..self.committed + positions as u64 {
                        cb(pos);
                    }
                }
                self.committed += positions as u64;
            }
            self.step += 1;
            if self.step as usize == schedule.steps.len() {
                self.step = 0;
            }
        }
    }

    /// Runs `count` identical burst cycles — each `budget` executed
    /// cycles followed by a brownout [`rollback`](NodeState::rollback) —
    /// batching the steady state in O(1).
    ///
    /// This is the *flicker* regime: a plan that outdraws the sky
    /// charges to `v_on`, bursts for a fixed discharge time, browns out,
    /// and repeats — potentially thousands of times per weather epoch.
    /// Burst deltas from identical post-rollback positions are bitwise
    /// identical, so once two consecutive cycles land on the same step
    /// with the same deltas the remainder is pure multiplication.
    /// Committed positions, digests, step position, and rollback counts
    /// are *exactly* what `count` explicit `execute` + `rollback` pairs
    /// would produce; the float accumulators (`useful`, `wasted`,
    /// `checkpoint`) may differ only by summation order.
    pub fn execute_burst_cycles(
        &mut self,
        schedule: &Schedule,
        budget: f64,
        count: u64,
        mut observe: Option<&mut dyn FnMut(u64)>,
    ) {
        // After each burst + rollback the node's compute state collapses
        // to `step` alone (progress is cleared, the budget is fixed), so
        // the post-rollback step sequence must revisit a step within one
        // lap of the schedule — and from a repeated step, the intervening
        // cycles repeat verbatim. Memoize the accumulators at the first
        // visit of each step; on revisit, multiply out whole laps.
        let mut seen: Vec<Option<StepSnapshot>> = vec![None; schedule.steps.len()];
        let mut done = 0u64;
        let mut detect = true;
        while done < count {
            if detect {
                let at = seen.get(self.step as usize).copied().flatten();
                if let Some((done0, c0, u0, w0, k0, r0)) = at {
                    let lap = done - done0;
                    let laps = (count - done) / lap.max(1);
                    let dc = self.committed - c0;
                    if laps > 0 && dc > 0 {
                        if let Some(cb) = observe.as_mut() {
                            for pos in self.committed..self.committed + dc * laps {
                                cb(pos);
                            }
                        }
                    }
                    self.committed += dc * laps;
                    self.useful += (self.useful - u0) * laps as f64;
                    self.wasted += (self.wasted - w0) * laps as f64;
                    self.checkpoint += (self.checkpoint - k0) * laps as f64;
                    let dr = (self.rollbacks - r0) as u64 * laps;
                    self.rollbacks = self
                        .rollbacks
                        .saturating_add(dr.min(u32::MAX as u64) as u32);
                    done += laps * lap;
                    // The sub-lap remainder runs explicitly; the memo
                    // baselines are stale now, so stop detecting.
                    detect = false;
                    continue;
                }
                if let Some(slot) = seen.get_mut(self.step as usize) {
                    *slot = Some((
                        done,
                        self.committed,
                        self.useful,
                        self.wasted,
                        self.checkpoint,
                        self.rollbacks,
                    ));
                }
            }
            // Explicit reborrow: `as_deref_mut` would pin the trait
            // object's lifetime across loop iterations.
            let reborrow = observe.as_mut().map(|cb| &mut **cb as &mut dyn FnMut(u64));
            self.execute(schedule, budget, reborrow);
            self.rollback(schedule);
            done += 1;
        }
    }

    /// Loses all volatile state: back to the last commit — mirrors
    /// `IntermittentRuntime::rollback`.
    pub fn rollback(&mut self, schedule: &Schedule) {
        let Some(step) = schedule.steps.get(self.step as usize) else {
            return;
        };
        let lost = step.lost_base + self.step_progress;
        if lost > 0.0 {
            self.wasted += lost;
        }
        if lost > 0.0 || self.step != step.resume as u16 {
            self.rollbacks = self.rollbacks.saturating_add(1);
        }
        self.step = step.resume as u16;
        self.step_progress = 0.0;
    }
}

/// Fleet-wide shared physics: capacitor thresholds and the harvest
/// scale. One instance serves every node.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeModel {
    /// Storage capacitance, farads.
    pub capacitance: f64,
    /// Power-on-reset release voltage (node boots above this).
    pub v_on: f64,
    /// Brownout voltage (node dies below this).
    pub v_off: f64,
    /// Capacitor voltage ceiling (harvest clamps here).
    pub v_max: f64,
    /// Harvest power at full sun, watts (scaled linearly by irradiance —
    /// the cell's photocurrent is linear in light, and the twin assumes
    /// per-region MPP tracking).
    pub p_harvest_full: f64,
    /// The shared execution schedule.
    pub schedule: Schedule,
}

impl NodeModel {
    /// The paper-shaped reference model: the KXOB22 cell's full-sun MPP
    /// power, a small storage capacitor with the sim crate's restart
    /// hysteresis, and the recognition-loop chain on FRAM under `policy`.
    ///
    /// # Errors
    ///
    /// Propagates schedule construction failures (rejected policy) and a
    /// PV model that cannot produce an MPP.
    pub fn paper_reference(policy: CheckpointPolicy) -> Result<NodeModel, FleetError> {
        let cell = hems_pv::SolarCell::kxob22(hems_pv::Irradiance::FULL_SUN);
        let mpp = cell
            .mpp()
            .map_err(|e| FleetError::new("node model: cell mpp", e.to_string()))?;
        let schedule = Schedule::new(&TaskChain::recognition_loop(), policy, &NvmModel::fram())?;
        Ok(NodeModel {
            capacitance: 64e-6,
            v_on: 0.6,
            v_off: 0.5,
            v_max: 1.1,
            p_harvest_full: mpp.power.watts(),
            schedule,
        })
    }

    /// Stored energy at the power-on threshold, joules.
    pub fn e_on(&self) -> f64 {
        0.5 * self.capacitance * self.v_on * self.v_on
    }

    /// Stored energy at the brownout threshold, joules.
    pub fn e_off(&self) -> f64 {
        0.5 * self.capacitance * self.v_off * self.v_off
    }

    /// Stored energy at the voltage ceiling, joules.
    pub fn e_max(&self) -> f64 {
        0.5 * self.capacitance * self.v_max * self.v_max
    }
}

/// FNV-1a digest of a committed position stream — field-for-field the
/// digest the chaos power surface computes over
/// [`hems_intermittent::CommitEvent`] streams (tag, iteration, task;
/// timestamps excluded).
#[derive(Debug, Clone)]
pub struct CommitDigest {
    hasher: KeyHasher,
    chain_len: u64,
    /// Next expected position.
    expect: u64,
    /// Incremental `(iteration, task)` of `expect` — keeps the u64
    /// div/mod out of the hot path (sampled nodes push millions of
    /// positions per simulated day).
    iteration: u64,
    task: u64,
    violated: bool,
}

impl CommitDigest {
    /// A fresh digest for a chain of `chain_len` tasks.
    pub fn new(chain_len: u64) -> CommitDigest {
        let mut hasher = KeyHasher::new();
        hasher.write_tag("commit-stream");
        CommitDigest {
            hasher,
            chain_len: chain_len.max(1),
            expect: 0,
            iteration: 0,
            task: 0,
            violated: false,
        }
    }

    /// Feeds one committed absolute position.
    pub fn push(&mut self, pos: u64) {
        if pos == self.expect {
            self.hasher.write_u64(self.iteration);
            self.hasher.write_u64(self.task);
            self.expect += 1;
            self.task += 1;
            if self.task == self.chain_len {
                self.task = 0;
                self.iteration += 1;
            }
        } else {
            self.violated = true;
            self.hasher.write_u64(pos / self.chain_len);
            self.hasher.write_u64(pos % self.chain_len);
        }
    }

    /// `true` if any pushed position broke `0, 1, 2, …` contiguity.
    pub fn violated(&self) -> bool {
        self.violated
    }

    /// The digest over everything pushed so far.
    pub fn finish(&self) -> u64 {
        self.hasher.clone().finish()
    }

    /// The digest a fault-free stream of exactly `committed` positions
    /// would have — the reference the accumulated digest must equal.
    pub fn expected(chain_len: u64, committed: u64) -> u64 {
        let mut d = CommitDigest::new(chain_len);
        for pos in 0..committed {
            d.push(pos);
        }
        d.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hems_intermittent::Task;
    use hems_units::Cycles;

    fn small_chain() -> TaskChain {
        TaskChain::new(vec![
            Task::new("a", Cycles::new(100_000.0), 64),
            Task::new("b", Cycles::new(200_000.0), 128),
            Task::new("c", Cycles::new(50_000.0), 8),
        ])
        .expect("valid chain")
    }

    #[test]
    fn schedule_shapes_match_policies() {
        let nvm = NvmModel::fram();
        let per_task =
            Schedule::new(&small_chain(), CheckpointPolicy::EveryTask, &nvm).expect("schedule");
        assert_eq!(per_task.commits_per_period(), 3);
        assert_eq!(per_task.steps.len(), 6);
        let coarse =
            Schedule::new(&small_chain(), CheckpointPolicy::ChainBoundary, &nvm).expect("schedule");
        assert_eq!(coarse.commits_per_period(), 1);
        let every2 = Schedule::new(&small_chain(), CheckpointPolicy::EveryNTasks(2), &nvm)
            .expect("schedule");
        // Commits after task 2 and at the boundary after task 3.
        assert_eq!(every2.commits_per_period(), 2);
        // Work cycles are identical across policies; checkpoint overhead
        // shrinks with coarser policies.
        assert_eq!(per_task.period_useful, coarse.period_useful);
        assert!(per_task.period_checkpoint > coarse.period_checkpoint);
        // One period's work equals the chain's iteration cycles.
        let chain_cycles: f64 = small_chain()
            .tasks()
            .iter()
            .map(|t| t.cycles().count())
            .sum();
        assert_eq!(per_task.period_useful, chain_cycles);
    }

    #[test]
    fn low_voltage_policy_is_rejected() {
        let err = Schedule::new(
            &small_chain(),
            CheckpointPolicy::OnLowVoltage {
                threshold: Volts::new(0.8),
            },
            &NvmModel::fram(),
        );
        assert!(err.is_err());
    }

    #[test]
    fn batched_execution_equals_split_budgets_bitwise() {
        use hems_units::XorShiftRng;
        for policy in [
            CheckpointPolicy::EveryTask,
            CheckpointPolicy::EveryNTasks(2),
            CheckpointPolicy::ChainBoundary,
        ] {
            let schedule =
                Schedule::new(&small_chain(), policy, &NvmModel::fram()).expect("schedule");
            let mut rng = XorShiftRng::seed_from_u64(17);
            // Integer-valued budgets: the bitwise-equality claim below
            // rests on every operand being an exactly-representable
            // multiple of the smallest ulp in play. (Fractional budgets
            // agree only to ~1 ulp of the running total, because the
            // test's own sum rounds; the engine never needs cross-path
            // equality for those — only determinism.)
            let budgets: Vec<f64> = (0..200)
                .map(|_| rng.range_f64(1.0, 3.0e6).floor())
                .collect();
            let total: f64 = budgets.iter().sum();

            // One big call (hits the O(1) batch path repeatedly) …
            let mut whole = NodeState::new(0);
            whole.execute(&schedule, total, None);

            // … versus the same budget dribbled in (mostly slow path).
            // Because sequential subtraction of integer-valued step costs
            // from any f64 budget is exact here, the states agree
            // *bitwise* — this is what makes batching sound.
            let mut split = NodeState::new(0);
            let mut spent = 0.0f64;
            for b in &budgets {
                // Recreate the identical budget sequence the whole-call
                // consumed: spend exactly b, tracked so the final partial
                // budget matches.
                let give = b.min(total - spent);
                split.execute(&schedule, give, None);
                spent += give;
            }
            assert_eq!(whole.committed, split.committed, "{policy:?}");
            assert_eq!(whole.useful.to_bits(), split.useful.to_bits());
            assert_eq!(whole.checkpoint.to_bits(), split.checkpoint.to_bits());
            assert_eq!(whole.step, split.step, "{policy:?}");
            assert_eq!(
                whole.step_progress.to_bits(),
                split.step_progress.to_bits(),
                "{policy:?}"
            );
        }
    }

    #[test]
    fn rollback_loses_only_volatile_work_and_resumes_after_last_commit() {
        let schedule = Schedule::new(
            &small_chain(),
            CheckpointPolicy::EveryNTasks(2),
            &NvmModel::fram(),
        )
        .expect("schedule");
        let mut node = NodeState::new(0);
        // Finish task a (100k) and half of task b: no commit yet.
        node.execute(&schedule, 200_000.0, None);
        assert_eq!(node.committed, 0);
        let in_flight = node.in_flight(&schedule);
        assert_eq!(in_flight, 200_000.0);
        node.rollback(&schedule);
        assert_eq!(node.wasted, 200_000.0);
        assert_eq!(node.rollbacks, 1);
        assert_eq!(node.committed, 0);
        assert_eq!(node.in_flight(&schedule), 0.0);
        // Re-execute through the first commit (tasks a+b + commit cost).
        let commit_cost = NvmModel::fram().commit_cost(64 + 128).count();
        node.execute(&schedule, 300_000.0 + commit_cost, None);
        assert_eq!(node.committed, 2);
        // A rollback exactly at a commit completion is a no-op.
        let before = node.clone();
        node.rollback(&schedule);
        assert_eq!(node.rollbacks, before.rollbacks);
        assert_eq!(node.wasted, before.wasted);
    }

    #[test]
    fn observer_sees_contiguous_positions_through_batches_and_rollbacks() {
        let schedule = Schedule::new(
            &small_chain(),
            CheckpointPolicy::EveryTask,
            &NvmModel::fram(),
        )
        .expect("schedule");
        let mut node = NodeState::new(0);
        let mut digest = CommitDigest::new(schedule.chain_len());
        let feed = |node: &mut NodeState, budget: f64, digest: &mut CommitDigest| {
            let mut cb = |pos: u64| digest.push(pos);
            node.execute(&schedule, budget, Some(&mut cb));
        };
        // A large batched call, a rollback mid-task, and dribbles.
        feed(
            &mut node,
            10.0 * schedule.period_cycles() + 123_456.0,
            &mut digest,
        );
        node.rollback(&schedule);
        for _ in 0..50 {
            feed(&mut node, 77_777.0, &mut digest);
        }
        assert!(!digest.violated());
        assert_eq!(
            digest.finish(),
            CommitDigest::expected(schedule.chain_len(), node.committed)
        );
        assert!(node.committed > 30);
    }

    #[test]
    fn burst_cycle_batching_matches_the_explicit_loop() {
        for (budget, count) in [
            (14_000.0, 5_000u64),  // burst never finishes a task: pure waste
            (460_000.5, 1_000u64), // bursts cross commits (non-integer budget)
            (2_500_000.0, 300u64), // bursts span whole periods
        ] {
            let schedule = Schedule::new(
                &small_chain(),
                CheckpointPolicy::EveryTask,
                &NvmModel::fram(),
            )
            .expect("schedule");
            let mut explicit = NodeState::new(0);
            let mut digest_a = CommitDigest::new(schedule.chain_len());
            for _ in 0..count {
                let mut cb = |pos: u64| digest_a.push(pos);
                explicit.execute(&schedule, budget, Some(&mut cb));
                explicit.rollback(&schedule);
            }
            let mut batched = NodeState::new(0);
            let mut digest_b = CommitDigest::new(schedule.chain_len());
            let mut cb = |pos: u64| digest_b.push(pos);
            batched.execute_burst_cycles(&schedule, budget, count, Some(&mut cb));
            // Exact: positions, digests, step, rollbacks.
            assert_eq!(explicit.committed, batched.committed, "budget {budget}");
            assert_eq!(digest_a.finish(), digest_b.finish(), "budget {budget}");
            assert!(!digest_b.violated());
            assert_eq!(explicit.step, batched.step);
            assert_eq!(explicit.rollbacks, batched.rollbacks);
            // Summation-order tolerance on the float accumulators.
            for (a, b) in [
                (explicit.useful, batched.useful),
                (explicit.wasted, batched.wasted),
                (explicit.checkpoint, batched.checkpoint),
            ] {
                let scale = a.abs().max(b.abs()).max(1.0);
                assert!((a - b).abs() / scale < 1e-9, "{a} vs {b}");
            }
        }
    }

    #[test]
    fn goodput_is_bounded_and_accounting_closes() {
        let schedule = Schedule::new(
            &small_chain(),
            CheckpointPolicy::EveryTask,
            &NvmModel::fram(),
        )
        .expect("schedule");
        let mut node = NodeState::new(0);
        let mut executed = 0.0;
        for i in 0..40 {
            let b = 50_000.0 + (i as f64) * 13_111.0;
            node.execute(&schedule, b, None);
            executed += b;
            if i % 7 == 3 {
                node.rollback(&schedule);
            }
        }
        let g = node.goodput(&schedule);
        assert!((0.0..=1.0).contains(&g), "goodput {g}");
        let accounted = node.useful + node.wasted + node.checkpoint + node.in_flight(&schedule);
        assert!(
            (accounted - executed).abs() < 1e-6,
            "accounted {accounted} vs executed {executed}"
        );
    }

    #[test]
    fn node_state_is_compact() {
        assert!(std::mem::size_of::<NodeState>() <= 200);
        // The real figure, for the curious (and the bench report).
        assert!(std::mem::size_of::<NodeState>() <= 96);
    }

    #[test]
    fn paper_reference_model_is_buildable_and_sane() {
        let model = NodeModel::paper_reference(CheckpointPolicy::EveryTask).expect("model");
        assert!(model.p_harvest_full > 1e-4, "mpp {}", model.p_harvest_full);
        assert!(model.e_on() > model.e_off());
        assert!(model.e_max() > model.e_on());
        assert_eq!(model.schedule.chain_len(), 5);
    }

    #[test]
    fn digest_matches_the_chaos_surface_shape() {
        // Same tag, same fields: a contiguous stream's digest must match
        // a hand-rolled KeyHasher loop.
        let mut d = CommitDigest::new(3);
        for pos in 0..7u64 {
            d.push(pos);
        }
        let mut h = KeyHasher::new();
        h.write_tag("commit-stream");
        for pos in 0..7u64 {
            h.write_u64(pos / 3);
            h.write_u64(pos % 3);
        }
        assert_eq!(d.finish(), h.finish());
        assert!(!d.violated());
        let mut bad = CommitDigest::new(3);
        bad.push(0);
        bad.push(2);
        assert!(bad.violated());
    }
}
