use hems_units::{Cycles, Seconds};

/// A unit of work: a fixed number of clock cycles (e.g. one image frame
/// through the recognition pipeline), optionally with a deadline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Job {
    /// Total cycles the job requires.
    pub cycles: Cycles,
    /// Optional absolute completion deadline.
    pub deadline: Option<Seconds>,
}

impl Job {
    /// A job of `cycles` with no deadline.
    pub fn new(cycles: Cycles) -> Job {
        Job {
            cycles,
            deadline: None,
        }
    }

    /// A job that must finish by `deadline`.
    pub fn with_deadline(cycles: Cycles, deadline: Seconds) -> Job {
        Job {
            cycles,
            deadline: Some(deadline),
        }
    }
}

/// A FIFO queue of jobs consumed by executed cycles.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct JobQueue {
    jobs: Vec<Job>,
    current: usize,
    progress: Cycles,
    completions: Vec<(usize, Seconds)>,
}

impl JobQueue {
    /// An empty queue.
    pub fn new() -> JobQueue {
        JobQueue::default()
    }

    /// Enqueues a job; returns its index.
    pub fn push(&mut self, job: Job) -> usize {
        self.jobs.push(job);
        self.jobs.len() - 1
    }

    /// The job currently executing, if any remain.
    pub fn current(&self) -> Option<&Job> {
        self.jobs.get(self.current)
    }

    /// Cycles still needed to finish the current job, if any.
    pub fn current_remaining(&self) -> Option<Cycles> {
        self.current()
            .map(|j| Cycles::new((j.cycles.count() - self.progress.count()).max(0.0)))
    }

    /// Total cycles remaining across all queued jobs.
    pub fn total_remaining(&self) -> Cycles {
        let mut total = self.current_remaining().unwrap_or(Cycles::ZERO);
        for j in self.jobs.iter().skip(self.current + 1) {
            total += j.cycles;
        }
        total
    }

    /// Feeds executed cycles at time `now`; returns the indices of jobs
    /// completed by this increment.
    pub fn advance(&mut self, executed: Cycles, now: Seconds) -> Vec<usize> {
        let mut done = Vec::new();
        let mut budget = executed.count();
        while budget > 0.0 {
            let Some(job) = self.jobs.get(self.current) else {
                break;
            };
            let need = job.cycles.count() - self.progress.count();
            if budget >= need {
                budget -= need;
                done.push(self.current);
                self.completions.push((self.current, now));
                self.current += 1;
                self.progress = Cycles::ZERO;
            } else {
                self.progress += Cycles::new(budget);
                budget = 0.0;
            }
        }
        done
    }

    /// Number of completed jobs.
    pub fn completed(&self) -> usize {
        self.current.min(self.jobs.len())
    }

    /// Number of jobs still queued (including the in-progress one).
    pub fn pending(&self) -> usize {
        self.jobs.len() - self.completed()
    }

    /// `(job index, completion time)` pairs, in completion order.
    pub fn completions(&self) -> &[(usize, Seconds)] {
        &self.completions
    }

    /// Jobs whose deadline passed before they completed (or which are still
    /// incomplete past their deadline at time `now`).
    pub fn missed_deadlines(&self, now: Seconds) -> Vec<usize> {
        let mut missed = Vec::new();
        for (i, job) in self.jobs.iter().enumerate() {
            let Some(deadline) = job.deadline else {
                continue;
            };
            match self.completions.iter().find(|(idx, _)| *idx == i) {
                Some((_, at)) => {
                    if *at > deadline {
                        missed.push(i);
                    }
                }
                None => {
                    if now > deadline {
                        missed.push(i);
                    }
                }
            }
        }
        missed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn advances_through_jobs_fifo() {
        let mut q = JobQueue::new();
        q.push(Job::new(Cycles::new(100.0)));
        q.push(Job::new(Cycles::new(50.0)));
        assert_eq!(q.pending(), 2);
        let done = q.advance(Cycles::new(60.0), Seconds::new(1.0));
        assert!(done.is_empty());
        assert_eq!(q.current_remaining().unwrap().count(), 40.0);
        let done = q.advance(Cycles::new(70.0), Seconds::new(2.0));
        assert_eq!(done, vec![0]);
        assert_eq!(q.completed(), 1);
        assert_eq!(q.current_remaining().unwrap().count(), 20.0);
        let done = q.advance(Cycles::new(1000.0), Seconds::new(3.0));
        assert_eq!(done, vec![1]);
        assert_eq!(q.pending(), 0);
        assert!(q.current().is_none());
        assert_eq!(q.total_remaining().count(), 0.0);
    }

    #[test]
    fn one_advance_can_finish_multiple_jobs() {
        let mut q = JobQueue::new();
        for _ in 0..3 {
            q.push(Job::new(Cycles::new(10.0)));
        }
        let done = q.advance(Cycles::new(35.0), Seconds::new(1.0));
        assert_eq!(done, vec![0, 1, 2]);
        assert_eq!(q.completions().len(), 3);
    }

    #[test]
    fn total_remaining_sums_queue() {
        let mut q = JobQueue::new();
        q.push(Job::new(Cycles::new(100.0)));
        q.push(Job::new(Cycles::new(200.0)));
        q.advance(Cycles::new(30.0), Seconds::ZERO);
        assert_eq!(q.total_remaining().count(), 270.0);
    }

    #[test]
    fn deadline_tracking() {
        let mut q = JobQueue::new();
        q.push(Job::with_deadline(
            Cycles::new(100.0),
            Seconds::from_milli(10.0),
        ));
        q.push(Job::with_deadline(
            Cycles::new(100.0),
            Seconds::from_milli(20.0),
        ));
        // Finish job 0 on time.
        q.advance(Cycles::new(100.0), Seconds::from_milli(8.0));
        // Job 1 unfinished; at t=15 ms its deadline (20 ms) has not passed.
        assert!(q.missed_deadlines(Seconds::from_milli(15.0)).is_empty());
        // At t=25 ms job 1 is late.
        assert_eq!(q.missed_deadlines(Seconds::from_milli(25.0)), vec![1]);
        // Finishing it late still counts as missed.
        q.advance(Cycles::new(100.0), Seconds::from_milli(30.0));
        assert_eq!(q.missed_deadlines(Seconds::from_milli(31.0)), vec![1]);
    }

    #[test]
    fn zero_advance_is_a_no_op() {
        let mut q = JobQueue::new();
        q.push(Job::new(Cycles::new(10.0)));
        assert!(q.advance(Cycles::ZERO, Seconds::ZERO).is_empty());
        assert_eq!(q.current_remaining(), Some(Cycles::new(10.0)));
    }
}
