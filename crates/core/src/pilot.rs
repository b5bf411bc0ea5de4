//! The pilot manager: acquiring platform resources for the session.
//!
//! A pilot decouples resource acquisition from task/service execution: the session
//! submits a [`crate::describe::PilotDescription`], the pilot manager obtains an
//! allocation from the platform's batch system (modelling queue wait if requested), and
//! the allocation then backs a [`crate::scheduler::Scheduler`] onto which tasks and
//! services are placed.

use std::collections::BTreeMap;
use std::sync::Arc;

use parking_lot::Mutex;

use hpcml_platform::batch::{AllocationRequest, BatchSystem};
use hpcml_platform::PlatformId;
use hpcml_sim::clock::SharedClock;

use crate::error::RuntimeError;
use crate::records::PilotRecord;
use crate::states::PilotState;

/// Manages pilots across one or more platforms.
pub struct PilotManager {
    clock: SharedClock,
    seed: u64,
    batch_systems: Mutex<BTreeMap<String, Arc<BatchSystem>>>,
}

impl std::fmt::Debug for PilotManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PilotManager")
            .field(
                "platforms",
                &self
                    .batch_systems
                    .lock()
                    .keys()
                    .cloned()
                    .collect::<Vec<_>>(),
            )
            .finish()
    }
}

impl PilotManager {
    /// Create a pilot manager.
    pub fn new(clock: SharedClock, seed: u64) -> Self {
        PilotManager {
            clock,
            seed,
            batch_systems: Mutex::new(BTreeMap::new()),
        }
    }

    /// The batch system for `platform`, creating it lazily.
    pub fn batch_system(&self, platform: PlatformId) -> Arc<BatchSystem> {
        let mut map = self.batch_systems.lock();
        let key = platform.short_name().to_string();
        Arc::clone(map.entry(key).or_insert_with(|| {
            Arc::new(BatchSystem::new(
                platform.spec(),
                Arc::clone(&self.clock),
                self.seed,
            ))
        }))
    }

    /// Drive a pilot record from `New` to `Active`, acquiring its allocation.
    pub fn activate(&self, record: &Arc<PilotRecord>) -> Result<(), RuntimeError> {
        let desc = record.description;
        record.state.transition(PilotState::Queued)?;
        let batch = self.batch_system(desc.platform);
        let request = AllocationRequest::nodes(desc.nodes)
            .with_walltime_secs(desc.runtime_secs)
            .with_queue_wait(desc.model_queue_wait);
        match batch.submit(request) {
            Ok(allocation) => {
                *record.allocation.lock() = Some(allocation);
                record.state.transition(PilotState::Active)?;
                Ok(())
            }
            Err(e) => {
                record.state.fail(PilotState::Failed, e.to_string());
                Err(RuntimeError::Batch(e))
            }
        }
    }

    /// Resize an active pilot to `target` nodes. Growing charges fresh nodes
    /// against the platform's free pool and appends them to the allocation
    /// ([`hpcml_platform::batch::Allocation::expand`]); shrinking retires failed
    /// nodes first, then fully idle ones
    /// ([`hpcml_platform::batch::Allocation::shrink`]), shedding the retired count
    /// from the pool. Returns the number of attached nodes after the resize.
    pub fn resize(&self, record: &Arc<PilotRecord>, target: usize) -> Result<usize, RuntimeError> {
        if record.state.current() != PilotState::Active {
            return Err(RuntimeError::InvalidState(format!(
                "cannot resize a pilot in state {:?}",
                record.state.current()
            )));
        }
        let alloc =
            record.allocation.lock().clone().ok_or_else(|| {
                RuntimeError::InvalidState("pilot active without allocation".into())
            })?;
        let batch = self.batch_system(record.description.platform);
        let attached = alloc.attached_nodes();
        if target > attached {
            let n = target - attached;
            batch.grow(n).map_err(RuntimeError::Batch)?;
            if let Err(e) = alloc.expand(n) {
                // The allocation refused the new nodes (e.g. a concurrent resize):
                // return the charge to the free pool before surfacing the error.
                batch.shed(n);
                return Err(RuntimeError::Resource(e));
            }
        } else if target < attached {
            let retired = alloc
                .shrink(attached - target)
                .map_err(RuntimeError::Resource)?;
            batch.shed(retired.len());
        }
        Ok(alloc.attached_nodes())
    }

    /// Terminate an active pilot, releasing its nodes back to the platform.
    pub fn terminate(&self, record: &Arc<PilotRecord>) -> Result<(), RuntimeError> {
        let allocation = record.allocation.lock().clone();
        if let Some(alloc) = allocation {
            self.batch_system(record.description.platform)
                .release(&alloc);
        }
        if !record.state.current().is_final() {
            record.state.transition(PilotState::Done)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::describe::PilotDescription;
    use hpcml_sim::clock::ClockSpec;

    fn manager() -> PilotManager {
        PilotManager::new(ClockSpec::scaled(10_000.0).build(), 11)
    }

    #[test]
    fn activate_and_terminate_pilot() {
        let pm = manager();
        let record = PilotRecord::new(
            "pilot.000000".into(),
            PilotDescription::new(PlatformId::Delta).nodes(4),
            ClockSpec::Manual.build(),
        );
        pm.activate(&record).unwrap();
        assert_eq!(record.state.current(), PilotState::Active);
        let alloc = record.allocation.lock().clone().unwrap();
        assert_eq!(alloc.num_nodes(), 4);
        assert_eq!(pm.batch_system(PlatformId::Delta).nodes_in_use(), 4);
        pm.terminate(&record).unwrap();
        assert_eq!(record.state.current(), PilotState::Done);
        assert_eq!(pm.batch_system(PlatformId::Delta).nodes_in_use(), 0);
    }

    #[test]
    fn oversized_pilot_fails() {
        let pm = manager();
        let record = PilotRecord::new(
            "pilot.000001".into(),
            PilotDescription::new(PlatformId::Local).nodes(1000),
            ClockSpec::Manual.build(),
        );
        let err = pm.activate(&record).unwrap_err();
        assert!(matches!(err, RuntimeError::Batch(_)));
        assert_eq!(record.state.current(), PilotState::Failed);
        assert!(record.state.error().unwrap().contains("nodes"));
        // Terminating a failed pilot is harmless.
        pm.terminate(&record).unwrap();
        assert_eq!(record.state.current(), PilotState::Failed);
    }

    #[test]
    fn batch_systems_are_shared_per_platform() {
        let pm = manager();
        let a = pm.batch_system(PlatformId::Frontier);
        let b = pm.batch_system(PlatformId::Frontier);
        assert!(Arc::ptr_eq(&a, &b));
        let c = pm.batch_system(PlatformId::Delta);
        assert!(!Arc::ptr_eq(&a, &c));
        assert!(format!("{pm:?}").contains("frontier"));
    }

    #[test]
    fn queue_wait_modelled_when_requested() {
        let clock = ClockSpec::scaled(1_000_000.0).build();
        let pm = PilotManager::new(Arc::clone(&clock), 13);
        let record = PilotRecord::new(
            "pilot.000002".into(),
            PilotDescription::new(PlatformId::Frontier)
                .nodes(2)
                .with_queue_wait(true),
            Arc::clone(&clock),
        );
        pm.activate(&record).unwrap();
        let alloc = record.allocation.lock().clone().unwrap();
        assert!(alloc.queue_wait_secs() > 0.0);
    }
}
