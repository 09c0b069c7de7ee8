use crate::IntermittentError;
use hems_units::Cycles;

/// One atomic task: runs to completion or not at all (its effects are
/// committed only at a checkpoint).
#[derive(Debug, Clone, PartialEq)]
pub struct Task {
    name: String,
    cycles: Cycles,
    state_words: usize,
}

impl Task {
    /// A task of `cycles` whose persistent state is `state_words` words
    /// (committed to NVM at a checkpoint that includes it).
    pub fn new(name: impl Into<String>, cycles: Cycles, state_words: usize) -> Task {
        Task {
            name: name.into(),
            cycles,
            state_words,
        }
    }

    /// The task's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The task's compute cost.
    pub fn cycles(&self) -> Cycles {
        self.cycles
    }

    /// Words of state a checkpoint after this task must persist.
    pub fn state_words(&self) -> usize {
        self.state_words
    }
}

/// A repeating linear chain of tasks — the sense→process→classify loop of
/// a duty-cycled sensor node.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskChain {
    tasks: Vec<Task>,
}

impl TaskChain {
    /// Builds a chain.
    ///
    /// # Errors
    ///
    /// Returns [`IntermittentError::BadChain`] when the chain is empty or
    /// any task has a non-positive cycle cost.
    pub fn new(tasks: Vec<Task>) -> Result<TaskChain, IntermittentError> {
        if tasks.is_empty() {
            return Err(IntermittentError::BadChain {
                reason: "a chain needs at least one task",
            });
        }
        if tasks.iter().any(|t| !t.cycles.is_positive()) {
            return Err(IntermittentError::BadChain {
                reason: "every task needs a positive cycle cost",
            });
        }
        Ok(TaskChain { tasks })
    }

    /// The paper-scale recognition loop: scan a frame in, extract features,
    /// classify, transmit a result — sized to the `hems-imgproc` pipeline's
    /// calibrated megacycle frame.
    pub fn recognition_loop() -> TaskChain {
        TaskChain::new(vec![
            Task::new("scan-in", Cycles::new(170_000.0), 4_096 / 2),
            Task::new("gradient", Cycles::new(490_000.0), 1_024),
            Task::new("vector", Cycles::new(330_000.0), 512),
            Task::new("classify", Cycles::new(55_000.0), 8),
            Task::new("report", Cycles::new(10_000.0), 4),
        ])
        // hems-lint: allow(panic_reach, reason = "compile-time reference task list; validated by this module's unit tests")
        .expect("reference chain is valid")
    }

    /// The tasks in execution order.
    pub fn tasks(&self) -> &[Task] {
        &self.tasks
    }

    /// Number of tasks per iteration.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// Always `false`: construction rejects empty chains.
    pub fn is_empty(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_validates() {
        assert!(TaskChain::new(vec![]).is_err());
        assert!(TaskChain::new(vec![Task::new("z", Cycles::ZERO, 1)]).is_err());
        assert!(TaskChain::new(vec![Task::new("ok", Cycles::new(1.0), 0)]).is_ok());
    }

    #[test]
    fn recognition_loop_matches_frame_scale() {
        let chain = TaskChain::recognition_loop();
        assert_eq!(chain.len(), 5);
        assert!(!chain.is_empty());
        // One iteration ~ one calibrated 64x64 frame (~1.05 Mcycles).
        let total: f64 = chain.tasks().iter().map(|t| t.cycles().count()).sum();
        assert!((0.9e6..1.2e6).contains(&total), "total {total}");
    }

    #[test]
    fn task_accessors() {
        let t = Task::new("sample", Cycles::new(100.0), 7);
        assert_eq!(t.name(), "sample");
        assert_eq!(t.cycles().count(), 100.0);
        assert_eq!(t.state_words(), 7);
    }
}
