use hems_units::Seconds;
use std::fmt;

/// A discrete event the simulator records.
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    /// The processor lost its supply (node below minimum operating
    /// voltage with no serviceable path).
    Brownout,
    /// The processor regained a viable supply after a brownout.
    Wakeup,
    /// The controller switched from a regulated path to bypass.
    BypassEngaged,
    /// The controller switched back from bypass to a regulated path.
    BypassDisengaged,
    /// A queued job finished (index into the job queue).
    JobCompleted {
        /// Index of the completed job.
        index: usize,
    },
}

impl fmt::Display for EventKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EventKind::Brownout => write!(f, "brownout"),
            EventKind::Wakeup => write!(f, "wakeup"),
            EventKind::BypassEngaged => write!(f, "bypass engaged"),
            EventKind::BypassDisengaged => write!(f, "bypass disengaged"),
            EventKind::JobCompleted { index } => write!(f, "job {index} completed"),
        }
    }
}

/// A timestamped event.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// When the event occurred.
    pub at: Seconds,
    /// What happened.
    pub kind: EventKind,
}

/// An append-only log of simulation events.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EventLog {
    events: Vec<Event>,
}

impl EventLog {
    /// An empty log.
    pub fn new() -> EventLog {
        EventLog::default()
    }

    /// Appends an event.
    pub fn push(&mut self, at: Seconds, kind: EventKind) {
        self.events.push(Event { at, kind });
    }

    /// All events in chronological (insertion) order.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events matching a predicate on their kind.
    pub fn filter<'a>(
        &'a self,
        mut pred: impl FnMut(&EventKind) -> bool + 'a,
    ) -> impl Iterator<Item = &'a Event> + 'a {
        self.events.iter().filter(move |e| pred(&e.kind))
    }

    /// Count of brownout events.
    pub fn brownouts(&self) -> usize {
        self.filter(|k| matches!(k, EventKind::Brownout)).count()
    }

    /// Count of completed jobs.
    pub fn completed_jobs(&self) -> usize {
        self.filter(|k| matches!(k, EventKind::JobCompleted { .. }))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_accumulates_in_order() {
        let mut log = EventLog::new();
        assert!(log.is_empty());
        log.push(Seconds::from_milli(1.0), EventKind::Brownout);
        log.push(Seconds::from_milli(2.0), EventKind::Wakeup);
        log.push(
            Seconds::from_milli(3.0),
            EventKind::JobCompleted { index: 0 },
        );
        assert_eq!(log.len(), 3);
        assert_eq!(log.brownouts(), 1);
        assert_eq!(log.completed_jobs(), 1);
        assert_eq!(log.events()[1].kind, EventKind::Wakeup);
    }

    #[test]
    fn filter_selects_by_kind() {
        let mut log = EventLog::new();
        log.push(Seconds::ZERO, EventKind::BypassEngaged);
        log.push(Seconds::from_milli(5.0), EventKind::BypassDisengaged);
        log.push(Seconds::from_milli(9.0), EventKind::BypassEngaged);
        let engaged: Vec<_> = log
            .filter(|k| matches!(k, EventKind::BypassEngaged))
            .collect();
        assert_eq!(engaged.len(), 2);
    }

    #[test]
    fn display_is_readable() {
        assert_eq!(EventKind::Brownout.to_string(), "brownout");
        assert_eq!(
            EventKind::JobCompleted { index: 7 }.to_string(),
            "job 7 completed"
        );
    }
}
