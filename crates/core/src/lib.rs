//! # hpcml-runtime — a pilot runtime with service-oriented extensions
//!
//! This crate is the reproduction of the paper's primary contribution: a runtime that
//! extends a pilot-job system (RADICAL-Pilot) with **service tasks**, so that ML
//! capabilities (model serving and inference) become first-class, schedulable,
//! monitorable entities next to ordinary compute tasks.
//!
//! The module layout mirrors the architecture of the paper's Fig. 2:
//!
//! * [`describe`] — the unified submission API's descriptions: [`describe::TaskDescription`],
//!   [`describe::ServiceDescription`], [`describe::PilotDescription`] (flow ①);
//! * [`states`] — the entity state models (task, service, pilot) and their legal
//!   transitions;
//! * [`records`] — the runtime-internal records tracking each entity's state,
//!   timestamps, placement and outcome, with blocking waiters;
//! * [`pilot`] — the pilot manager: acquiring resources from the platform's batch
//!   system and exposing them as an allocation;
//! * [`scheduler`] — placement of tasks and services onto allocation slots, with
//!   service-priority and blocking back-pressure (flow ②);
//! * [`executor`] — launching service instances (launch → init → publish → ready) and
//!   executing tasks (stage-in → run → stage-out), spending modelled durations on the
//!   shared virtual clock (flow ③–⑤);
//! * [`service_manager`] — service lifecycle: readiness, liveness probing, controlled
//!   shutdown, endpoint publication (the new component introduced by the paper);
//! * [`task_manager`] — task lifecycle and completion tracking;
//! * [`data`] — the data manager and input/output stagers;
//! * [`metrics`] — Bootstrap/Response/Inference time recorders with per-component
//!   breakdowns (the quantities of the paper's §IV);
//! * [`session`] — the client-facing `Session` tying everything together (flows ① and ⑥).
//!
//! # Example
//!
//! The scheduler used standalone: bind it to a pilot allocation, place a task-priority
//! request, release it. (Applications normally go through [`session::Session`], which
//! owns the scheduler; see the workspace root's quickstart.)
//!
//! ```
//! use std::time::Duration;
//!
//! use hpcml_platform::batch::{AllocationRequest, BatchSystem};
//! use hpcml_platform::{PlatformId, ResourceRequest};
//! use hpcml_runtime::scheduler::{Priority, Scheduler};
//! use hpcml_sim::clock::ClockSpec;
//!
//! let batch = BatchSystem::new(PlatformId::Local.spec(), ClockSpec::Manual.build(), 7);
//! let alloc = batch.submit(AllocationRequest::nodes(2))?;
//! let scheduler = Scheduler::new(alloc);
//!
//! let req = ResourceRequest::cores(2)?;
//! let slot = scheduler.allocate(&req, Priority::Task, Duration::from_secs(1))?;
//! assert_eq!(slot.num_cores(), 2);
//! scheduler.release(&slot)?;
//! assert_eq!(scheduler.outstanding_slots(), 0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

pub mod data;
pub mod describe;
pub mod error;
pub mod executor;
pub mod metrics;
pub mod pilot;
pub mod records;
pub mod scheduler;
pub mod service_manager;
pub mod session;
pub mod states;
pub mod task_manager;

pub use describe::{
    PilotDescription, ServiceDescription, ServicePlacement, TaskDescription, TaskKind,
};
pub use error::RuntimeError;
pub use metrics::RuntimeMetrics;
pub use session::{Session, SessionBuilder, SessionConfig};
pub use states::{PilotState, ServiceState, TaskState};

/// Commonly used types, re-exported for `use hpcml_runtime::prelude::*`.
pub mod prelude {
    pub use crate::describe::{
        DataDirective, GangPacking, PilotDescription, ServiceDescription, ServicePlacement,
        TaskDescription, TaskKind,
    };
    pub use crate::error::RuntimeError;
    pub use crate::metrics::RuntimeMetrics;
    pub use crate::records::{PilotHandle, ServiceHandle, TaskHandle};
    pub use crate::session::{Session, SessionBuilder, SessionConfig};
    pub use crate::states::{PilotState, ServiceState, TaskState};
    pub use hpcml_sim::fault::{FaultEvent, FaultPlan};
}
