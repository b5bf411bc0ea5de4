//! Entity state models.
//!
//! RADICAL-Pilot entities follow a stateful execution paradigm: every task, service and
//! pilot walks a fixed state graph, and every transition is timestamped (that is what
//! the paper's overhead decomposition is computed from). This module defines the three
//! state machines and their legal transitions; [`crate::records`] enforces them.

/// Give a state enum its variant names and state-update topics as static strings, so
/// that neither recording a transition nor publishing it formats `{state:?}`.
macro_rules! state_names {
    ($ty:ident, $entity:literal, [$($variant:ident),+]) => {
        impl $ty {
            /// The variant's name, as `{:?}` prints it.
            pub fn name(self) -> &'static str {
                match self {
                    $($ty::$variant => stringify!($variant),)+
                }
            }

            /// The topic this state's update is published on (`state.<entity>.<name>`).
            pub fn topic(self) -> &'static str {
                match self {
                    $($ty::$variant => concat!("state.", $entity, ".", stringify!($variant)),)+
                }
            }
        }
    };
}

/// States of a compute task.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum TaskState {
    /// Accepted by the client API.
    New,
    /// Waiting for / being assigned resources.
    Scheduling,
    /// Input data being staged to the execution sandbox.
    StagingInput,
    /// Running on its slot.
    Executing,
    /// Output data being staged back.
    StagingOutput,
    /// Finished successfully.
    Done,
    /// Finished unsuccessfully.
    Failed,
    /// Cancelled before completion.
    Canceled,
}

state_names!(
    TaskState,
    "task",
    [
        New,
        Scheduling,
        StagingInput,
        Executing,
        StagingOutput,
        Done,
        Failed,
        Canceled
    ]
);

impl TaskState {
    /// Whether this is a terminal state.
    pub fn is_final(self) -> bool {
        matches!(
            self,
            TaskState::Done | TaskState::Failed | TaskState::Canceled
        )
    }

    /// Legal successor states.
    pub fn successors(self) -> &'static [TaskState] {
        use TaskState::*;
        match self {
            New => &[Scheduling, Canceled],
            Scheduling => &[StagingInput, Executing, Failed, Canceled],
            StagingInput => &[Executing, Failed, Canceled],
            // Executing -> Scheduling is the node-failure retry edge: a task whose
            // slot was evicted re-enters the wait queue instead of failing outright.
            Executing => &[StagingOutput, Done, Scheduling, Failed, Canceled],
            StagingOutput => &[Done, Failed, Canceled],
            Done | Failed | Canceled => &[],
        }
    }

    /// Whether `self -> next` is a legal transition.
    pub fn can_transition_to(self, next: TaskState) -> bool {
        self.successors().contains(&next)
    }
}

/// States of a service instance (the paper's extension of the task model).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ServiceState {
    /// Accepted by the client API.
    New,
    /// Waiting for / being assigned resources.
    Scheduling,
    /// Service executable being launched on its target resources.
    Launching,
    /// ML capability (model) being loaded and initialised.
    Initializing,
    /// Endpoint being published to the registry.
    Publishing,
    /// Ready: accepting client requests.
    Ready,
    /// Orderly shutdown in progress.
    Stopping,
    /// Stopped after an orderly shutdown.
    Stopped,
    /// Failed (launch error, crash, failed liveness).
    Failed,
}

state_names!(
    ServiceState,
    "service",
    [
        New,
        Scheduling,
        Launching,
        Initializing,
        Publishing,
        Ready,
        Stopping,
        Stopped,
        Failed
    ]
);

impl ServiceState {
    /// Whether this is a terminal state.
    pub fn is_final(self) -> bool {
        matches!(self, ServiceState::Stopped | ServiceState::Failed)
    }

    /// Legal successor states.
    pub fn successors(self) -> &'static [ServiceState] {
        use ServiceState::*;
        match self {
            New => &[Scheduling, Failed],
            Scheduling => &[Launching, Failed],
            Launching => &[Initializing, Failed],
            Initializing => &[Publishing, Failed],
            Publishing => &[Ready, Failed],
            Ready => &[Stopping, Failed],
            Stopping => &[Stopped, Failed],
            Stopped | Failed => &[],
        }
    }

    /// Whether `self -> next` is a legal transition.
    pub fn can_transition_to(self, next: ServiceState) -> bool {
        self.successors().contains(&next)
    }

    /// The bootstrap phase (launch/init/publish) this state belongs to, if any. Used to
    /// attribute elapsed time to the paper's bootstrap components.
    pub fn bootstrap_component(self) -> Option<&'static str> {
        match self {
            ServiceState::Launching => Some("launch"),
            ServiceState::Initializing => Some("init"),
            ServiceState::Publishing => Some("publish"),
            _ => None,
        }
    }
}

/// States of a pilot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum PilotState {
    /// Accepted by the client API.
    New,
    /// Waiting in the platform's batch queue.
    Queued,
    /// Active: its allocation can be scheduled onto.
    Active,
    /// Finished (walltime expired or explicitly terminated).
    Done,
    /// Failed to start or aborted.
    Failed,
    /// Cancelled before becoming active.
    Canceled,
}

state_names!(
    PilotState,
    "pilot",
    [New, Queued, Active, Done, Failed, Canceled]
);

impl PilotState {
    /// Whether this is a terminal state.
    pub fn is_final(self) -> bool {
        matches!(
            self,
            PilotState::Done | PilotState::Failed | PilotState::Canceled
        )
    }

    /// Legal successor states.
    pub fn successors(self) -> &'static [PilotState] {
        use PilotState::*;
        match self {
            New => &[Queued, Failed, Canceled],
            Queued => &[Active, Failed, Canceled],
            Active => &[Done, Failed, Canceled],
            Done | Failed | Canceled => &[],
        }
    }

    /// Whether `self -> next` is a legal transition.
    pub fn can_transition_to(self, next: PilotState) -> bool {
        self.successors().contains(&next)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn task_happy_path_is_legal() {
        use TaskState::*;
        let path = [
            New,
            Scheduling,
            StagingInput,
            Executing,
            StagingOutput,
            Done,
        ];
        for w in path.windows(2) {
            assert!(w[0].can_transition_to(w[1]), "{:?} -> {:?}", w[0], w[1]);
        }
        assert!(Done.is_final());
        assert!(!Executing.is_final());
    }

    #[test]
    fn task_illegal_transitions_rejected() {
        use TaskState::*;
        assert!(!New.can_transition_to(Executing));
        assert!(!Done.can_transition_to(Executing));
        assert!(!Executing.can_transition_to(New));
        assert!(Done.successors().is_empty());
    }

    #[test]
    fn task_retry_edge_reenters_scheduling_from_executing_only() {
        use TaskState::*;
        assert!(Executing.can_transition_to(Scheduling));
        assert!(!StagingOutput.can_transition_to(Scheduling));
        assert!(!Done.can_transition_to(Scheduling));
        assert!(!Failed.can_transition_to(Scheduling));
    }

    #[test]
    fn service_happy_path_is_legal() {
        use ServiceState::*;
        let path = [
            New,
            Scheduling,
            Launching,
            Initializing,
            Publishing,
            Ready,
            Stopping,
            Stopped,
        ];
        for w in path.windows(2) {
            assert!(w[0].can_transition_to(w[1]), "{:?} -> {:?}", w[0], w[1]);
        }
        assert!(Stopped.is_final());
        assert!(Failed.is_final());
        assert!(!Ready.is_final());
    }

    #[test]
    fn service_every_non_final_state_can_fail() {
        use ServiceState::*;
        for s in [
            New,
            Scheduling,
            Launching,
            Initializing,
            Publishing,
            Ready,
            Stopping,
        ] {
            assert!(s.can_transition_to(Failed), "{s:?} must be able to fail");
        }
    }

    #[test]
    fn service_bootstrap_components_map_to_paper_figure3() {
        use ServiceState::*;
        assert_eq!(Launching.bootstrap_component(), Some("launch"));
        assert_eq!(Initializing.bootstrap_component(), Some("init"));
        assert_eq!(Publishing.bootstrap_component(), Some("publish"));
        assert_eq!(Ready.bootstrap_component(), None);
        assert_eq!(New.bootstrap_component(), None);
    }

    #[test]
    fn pilot_states() {
        use PilotState::*;
        assert!(New.can_transition_to(Queued));
        assert!(Queued.can_transition_to(Active));
        assert!(Active.can_transition_to(Done));
        assert!(!New.can_transition_to(Active));
        assert!(!Done.can_transition_to(Active));
        assert!(Canceled.is_final());
    }

    #[test]
    fn names_and_topics_are_the_debug_names() {
        for s in [
            TaskState::New,
            TaskState::StagingOutput,
            TaskState::Canceled,
        ] {
            assert_eq!(s.name(), format!("{s:?}"));
            assert_eq!(s.topic(), format!("state.task.{s:?}"));
        }
        for s in [ServiceState::Initializing, ServiceState::Stopped] {
            assert_eq!(s.name(), format!("{s:?}"));
            assert_eq!(s.topic(), format!("state.service.{s:?}"));
        }
        assert_eq!(PilotState::Queued.name(), "Queued");
        assert_eq!(PilotState::Active.topic(), "state.pilot.Active");
    }

    #[test]
    fn no_state_lists_itself_as_successor() {
        use ServiceState::*;
        for s in [
            New,
            Scheduling,
            Launching,
            Initializing,
            Publishing,
            Ready,
            Stopping,
            Stopped,
            Failed,
        ] {
            assert!(!s.successors().contains(&s));
        }
    }
}
