//! The task manager: tracking ordinary compute tasks.
//!
//! RADICAL-Pilot's `TaskManager` owns the lifecycle of submitted tasks; in this
//! reproduction it is the directory of [`TaskRecord`]s the session has accepted, with
//! aggregate queries (state counts, bulk waiting) used both by the workflow layer and by
//! the experiment harness to detect workload completion.
//!
//! Registering a task is the hot path (once per task, under one lock), looking one up by
//! id is rare (a report at the end of a run): the directory is a `Vec` that `add`
//! appends to and that the first `get` / `ids` after an append sorts by index — the
//! number a task id renders, so `task.999999` comes before `task.1000000`.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{RwLock, RwLockReadGuard};

use hpcml_sim::ids;

use crate::error::RuntimeError;
use crate::records::{TaskRecord, TASK_NAMESPACE};
use crate::states::TaskState;

#[derive(Default)]
struct Directory {
    /// In submission order until a lookup sorts them by index. Indices are unique
    /// (the session's generator hands each out once).
    records: Vec<Arc<TaskRecord>>,
    /// Whether `records` is in index order.
    sorted: bool,
}

/// Directory of all tasks known to a session.
#[derive(Default)]
pub struct TaskManager {
    tasks: RwLock<Directory>,
}

impl std::fmt::Debug for TaskManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TaskManager")
            .field("tasks", &self.len())
            .finish()
    }
}

impl TaskManager {
    /// Create an empty task manager.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a task record.
    pub fn add(&self, record: Arc<TaskRecord>) {
        let mut tasks = self.tasks.write();
        tasks.records.push(record);
        tasks.sorted = false;
    }

    /// The directory in index order, sorting it first if something was appended
    /// since the last lookup (session indices grow with submission, so that sort
    /// finds the records all but in place).
    fn by_index(&self) -> RwLockReadGuard<'_, Directory> {
        loop {
            let tasks = self.tasks.read();
            if tasks.sorted {
                return tasks;
            }
            drop(tasks);
            let mut tasks = self.tasks.write();
            tasks.records.sort_by_key(|r| r.index);
            tasks.sorted = true;
        }
    }

    /// Look a task up by its runtime identifier (`task.` and the index's digits).
    pub fn get(&self, id: &str) -> Option<Arc<TaskRecord>> {
        let index = ids::parse_id(TASK_NAMESPACE, id)?;
        let tasks = self.by_index();
        let found = tasks.records.binary_search_by_key(&index, |r| r.index);
        found.ok().map(|i| Arc::clone(&tasks.records[i]))
    }

    /// All known task identifiers, in index order.
    pub fn ids(&self) -> Vec<String> {
        self.by_index().records.iter().map(|r| r.id()).collect()
    }

    /// Number of registered tasks.
    pub fn len(&self) -> usize {
        self.tasks.read().records.len()
    }

    /// True if no task has been registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Count of tasks currently in each state.
    pub fn state_counts(&self) -> BTreeMap<TaskState, usize> {
        let mut counts = BTreeMap::new();
        for record in &self.tasks.read().records {
            *counts.entry(record.state.current()).or_insert(0) += 1;
        }
        counts
    }

    /// Number of tasks in a terminal state.
    pub fn finished(&self) -> usize {
        self.tasks
            .read()
            .records
            .iter()
            .filter(|r| r.state.current().is_final())
            .count()
    }

    /// Block until every registered task reached a terminal state or `timeout`
    /// elapses. Returns the per-state counts. Waits on each task's state in turn, then
    /// again over the directory if tasks were registered meanwhile.
    pub fn wait_all(&self, timeout: Duration) -> Result<BTreeMap<TaskState, usize>, RuntimeError> {
        let deadline = Instant::now().checked_add(timeout);
        loop {
            let records = self.tasks.read().records.clone();
            for record in &records {
                let remaining = deadline.map_or(Duration::MAX, |at| {
                    at.saturating_duration_since(Instant::now())
                });
                // Every terminal task state is final: the one error is the timeout.
                if record
                    .state
                    .wait_until(TaskState::is_final, remaining)
                    .is_err()
                {
                    return Err(RuntimeError::WaitTimeout {
                        entity: "task manager".to_string(),
                        awaited: "all tasks final".to_string(),
                    });
                }
            }
            if self.len() == records.len() {
                return Ok(self.state_counts());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::describe::TaskDescription;
    use hpcml_platform::PlatformId;
    use hpcml_sim::clock::ClockSpec;
    use std::thread;

    fn record(id: &str) -> Arc<TaskRecord> {
        TaskRecord::new(
            id.to_string(),
            TaskDescription::new(id),
            PlatformId::Local,
            ClockSpec::Manual.build(),
        )
    }

    #[test]
    fn add_get_and_counts() {
        let tm = TaskManager::new();
        assert!(tm.is_empty());
        let a = record("task.000000");
        let b = record("task.000001");
        tm.add(Arc::clone(&a));
        tm.add(Arc::clone(&b));
        assert_eq!(tm.len(), 2);
        assert_eq!(tm.ids(), ["task.000000", "task.000001"]);
        assert!(tm.get("task.000000").is_some());
        assert!(tm.get("task.000009").is_none());
        assert!(tm.get("task.0").is_none(), "no task id");
        assert!(tm.get("service.000000").is_none(), "no task id");
        assert_eq!(tm.state_counts()[&TaskState::New], 2);
        assert_eq!(tm.finished(), 0);
    }

    #[test]
    fn lookups_sort_what_was_appended_out_of_order() {
        let tm = TaskManager::new();
        for id in ["task.000002", "task.000000", "task.000001"] {
            tm.add(record(id));
        }
        assert_eq!(tm.ids(), ["task.000000", "task.000001", "task.000002"]);
        assert_eq!(tm.get("task.000001").unwrap().id(), "task.000001");
        // An append after a lookup is found by the next one.
        tm.add(record("task.000003"));
        tm.add(record("task.000005"));
        tm.add(record("task.000004"));
        assert_eq!(tm.get("task.000004").unwrap().index, 4);
        assert_eq!(tm.ids()[3..], ["task.000003", "task.000004", "task.000005"]);
        assert_eq!(tm.len(), 6);
    }

    #[test]
    fn ids_past_six_digits_keep_their_numeric_order() {
        // As strings, "task.1000000" sorts before "task.999999".
        let tm = TaskManager::new();
        for id in ["task.1000000", "task.999999"] {
            tm.add(record(id));
        }
        assert_eq!(tm.ids(), ["task.999999", "task.1000000"]);
        assert_eq!(tm.get("task.999999").unwrap().index, 999_999);
        assert_eq!(tm.get("task.1000000").unwrap().index, 1_000_000);
    }

    #[test]
    fn wait_all_returns_when_tasks_finish() {
        let tm = Arc::new(TaskManager::new());
        let a = record("task.000000");
        tm.add(Arc::clone(&a));
        let tm2 = Arc::clone(&tm);
        let waiter = thread::spawn(move || tm2.wait_all(Duration::from_secs(5)));
        thread::sleep(Duration::from_millis(10));
        a.state.transition(TaskState::Scheduling).unwrap();
        a.state.transition(TaskState::Executing).unwrap();
        a.state.transition(TaskState::Done).unwrap();
        let counts = waiter.join().unwrap().unwrap();
        assert_eq!(counts[&TaskState::Done], 1);
    }

    #[test]
    fn wait_all_times_out() {
        let tm = TaskManager::new();
        tm.add(record("task.000000"));
        let err = tm.wait_all(Duration::from_millis(20)).unwrap_err();
        assert!(matches!(err, RuntimeError::WaitTimeout { .. }));
    }

    #[test]
    fn wait_all_counts_failures_as_finished() {
        let tm = TaskManager::new();
        let a = record("task.000000");
        tm.add(Arc::clone(&a));
        a.state.fail(TaskState::Failed, "broken");
        let counts = tm.wait_all(Duration::from_millis(100)).unwrap();
        assert_eq!(counts[&TaskState::Failed], 1);
        assert!(format!("{tm:?}").contains("tasks"));
    }
}
