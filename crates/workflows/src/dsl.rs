//! An EnTK-like Pipeline → Stage → Task workflow model and its runner.
//!
//! A [`Pipeline`] is an ordered list of [`Stage`]s. Within a stage, all tasks execute
//! concurrently (subject to resource availability); stages execute sequentially. A stage
//! may declare services: the runner brings them up (and waits for readiness) before
//! submitting the stage's tasks, and tears them down when the pipeline finishes — unless
//! the stage marks them `keep_alive`, which is how the LUCID pipelines keep one model
//! service spanning several stages.

use std::collections::BTreeMap;
use std::time::Duration;

use hpcml_runtime::describe::{ServiceDescription, TaskDescription};
use hpcml_runtime::error::RuntimeError;
use hpcml_runtime::records::{ServiceHandle, TaskHandle};
use hpcml_runtime::session::Session;
use hpcml_runtime::states::TaskState;
use hpcml_sim::clock::Stopwatch;

/// One stage of a pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct Stage {
    /// Stage name.
    pub name: String,
    /// Services to bring up before the stage's tasks run.
    pub services: Vec<ServiceDescription>,
    /// Tasks executed concurrently within the stage.
    pub tasks: Vec<TaskDescription>,
    /// Keep this stage's services alive for the remainder of the pipeline instead of
    /// stopping them when the stage completes.
    pub keep_services_alive: bool,
}

impl Stage {
    /// Create an empty stage.
    pub fn new(name: impl Into<String>) -> Self {
        Stage {
            name: name.into(),
            services: Vec::new(),
            tasks: Vec::new(),
            keep_services_alive: false,
        }
    }

    /// Add a service.
    pub fn service(mut self, s: ServiceDescription) -> Self {
        self.services.push(s);
        self
    }

    /// Add a task.
    pub fn task(mut self, t: TaskDescription) -> Self {
        self.tasks.push(t);
        self
    }

    /// Add many tasks.
    pub fn tasks(mut self, ts: impl IntoIterator<Item = TaskDescription>) -> Self {
        self.tasks.extend(ts);
        self
    }

    /// Keep this stage's services alive beyond the stage.
    pub fn keep_services(mut self) -> Self {
        self.keep_services_alive = true;
        self
    }
}

/// A pipeline: an ordered list of stages.
#[derive(Debug, Clone, PartialEq)]
pub struct Pipeline {
    /// Pipeline name.
    pub name: String,
    /// Ordered stages.
    pub stages: Vec<Stage>,
}

impl Pipeline {
    /// Create an empty pipeline.
    pub fn new(name: impl Into<String>) -> Self {
        Pipeline {
            name: name.into(),
            stages: Vec::new(),
        }
    }

    /// Append a stage.
    pub fn stage(mut self, s: Stage) -> Self {
        self.stages.push(s);
        self
    }

    /// Total number of tasks across all stages.
    pub fn total_tasks(&self) -> usize {
        self.stages.iter().map(|s| s.tasks.len()).sum()
    }

    /// Total number of service instances across all stages.
    pub fn total_services(&self) -> usize {
        self.stages.iter().map(|s| s.services.len()).sum()
    }
}

/// Outcome of one executed stage.
#[derive(Debug, Clone, PartialEq)]
pub struct StageReport {
    /// Stage name.
    pub name: String,
    /// Virtual seconds the stage took end to end.
    pub duration_secs: f64,
    /// Number of tasks that finished in `Done`.
    pub tasks_done: usize,
    /// Number of tasks that failed or were cancelled.
    pub tasks_failed: usize,
    /// Number of services brought up for this stage.
    pub services_started: usize,
}

/// Outcome of a pipeline run.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineReport {
    /// Pipeline name.
    pub pipeline: String,
    /// Per-stage reports, in execution order.
    pub stages: Vec<StageReport>,
    /// Virtual seconds end to end.
    pub total_secs: f64,
}

impl PipelineReport {
    /// Total tasks completed successfully.
    pub fn tasks_done(&self) -> usize {
        self.stages.iter().map(|s| s.tasks_done).sum()
    }

    /// Total tasks failed.
    pub fn tasks_failed(&self) -> usize {
        self.stages.iter().map(|s| s.tasks_failed).sum()
    }

    /// True if no task failed.
    pub fn all_succeeded(&self) -> bool {
        self.tasks_failed() == 0
    }

    /// Render a compact textual report (one line per stage).
    pub fn render(&self) -> String {
        let mut out = format!(
            "pipeline {} — {:.1}s total\n",
            self.pipeline, self.total_secs
        );
        for s in &self.stages {
            out.push_str(&format!(
                "  stage {:<28} {:>8.1}s  done={:<4} failed={:<4} services={}\n",
                s.name, s.duration_secs, s.tasks_done, s.tasks_failed, s.services_started
            ));
        }
        out
    }
}

/// Executes pipelines against a [`Session`].
pub struct PipelineRunner<'a> {
    session: &'a Session,
    /// Real-time budget for waiting on each stage's tasks.
    stage_timeout: Duration,
}

impl<'a> PipelineRunner<'a> {
    /// Create a runner bound to a session.
    pub fn new(session: &'a Session) -> Self {
        PipelineRunner {
            session,
            stage_timeout: Duration::from_secs(600),
        }
    }

    /// Override the per-stage real-time timeout.
    pub fn stage_timeout(mut self, timeout: Duration) -> Self {
        self.stage_timeout = timeout;
        self
    }

    /// Run the pipeline to completion, returning a per-stage report.
    pub fn run(&self, pipeline: &Pipeline) -> Result<PipelineReport, RuntimeError> {
        let clock = self.session.clock();
        let total_watch = Stopwatch::start(clock.as_ref());
        let mut stage_reports = Vec::with_capacity(pipeline.stages.len());
        let mut keep_alive: Vec<ServiceHandle> = Vec::new();

        for stage in &pipeline.stages {
            let watch = Stopwatch::start(clock.as_ref());

            // Bring services up first and wait for readiness — the runtime guarantees
            // this ordering anyway (service priority + after_service), but the workflow
            // layer waits explicitly so stage timings are attributable.
            let mut services: Vec<ServiceHandle> = Vec::with_capacity(stage.services.len());
            for sd in &stage.services {
                services.push(self.session.submit_service(sd.clone())?);
            }
            for svc in &services {
                svc.wait_ready_timeout(self.stage_timeout)?;
            }

            // Submit every task of the stage, then wait for all of them.
            let handles: Vec<TaskHandle> = stage
                .tasks
                .iter()
                .map(|td| self.session.submit_task(td.clone()))
                .collect::<Result<_, _>>()?;
            let mut done = 0;
            let mut failed = 0;
            for h in &handles {
                match h.wait_final(self.stage_timeout)? {
                    TaskState::Done => done += 1,
                    _ => failed += 1,
                }
            }

            // Tear the stage's services down unless they span the rest of the pipeline.
            if stage.keep_services_alive {
                keep_alive.extend(services);
            } else {
                for svc in &services {
                    let _ = self.session.service_manager().stop(svc.name());
                }
            }

            stage_reports.push(StageReport {
                name: stage.name.clone(),
                duration_secs: watch.elapsed_secs(),
                tasks_done: done,
                tasks_failed: failed,
                services_started: stage.services.len(),
            });
        }

        // Stop services kept alive across stages.
        for svc in &keep_alive {
            let _ = self.session.service_manager().stop(svc.name());
        }

        Ok(PipelineReport {
            pipeline: pipeline.name.clone(),
            stages: stage_reports,
            total_secs: total_watch.elapsed_secs(),
        })
    }
}

/// Summarise a pipeline's structure as `(stage name, #services, #tasks)` rows — used by
/// the Table I generator and by documentation.
pub fn structure(pipeline: &Pipeline) -> Vec<(String, usize, usize)> {
    pipeline
        .stages
        .iter()
        .map(|s| (s.name.clone(), s.services.len(), s.tasks.len()))
        .collect()
}

/// Group tasks of a pipeline per tag value (e.g. per `stage` tag) — convenience used by
/// reports and tests.
pub fn tasks_by_tag(pipeline: &Pipeline, key: &str) -> BTreeMap<String, usize> {
    let mut map = BTreeMap::new();
    for stage in &pipeline.stages {
        for task in &stage.tasks {
            if let Some((_, v)) = task.tags.iter().find(|(k, _)| k == key) {
                *map.entry(v.clone()).or_insert(0) += 1;
            }
        }
    }
    map
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcml_platform::PlatformId;
    use hpcml_runtime::describe::{PilotDescription, TaskKind};
    use hpcml_serving::ModelSpec;
    use hpcml_sim::clock::ClockSpec;

    fn session() -> Session {
        let s = Session::builder("dsl-test")
            .platform(PlatformId::Local)
            .clock(ClockSpec::scaled(5000.0))
            .build()
            .unwrap();
        s.submit_pilot(PilotDescription::new(PlatformId::Local).nodes(2))
            .unwrap();
        s
    }

    #[test]
    fn pipeline_builder_counts() {
        let p = Pipeline::new("demo")
            .stage(
                Stage::new("a")
                    .task(TaskDescription::new("t1"))
                    .task(TaskDescription::new("t2")),
            )
            .stage(
                Stage::new("b")
                    .service(ServiceDescription::new("svc"))
                    .task(TaskDescription::new("t3")),
            );
        assert_eq!(p.total_tasks(), 3);
        assert_eq!(p.total_services(), 1);
        assert_eq!(
            structure(&p),
            vec![("a".to_string(), 0, 2), ("b".to_string(), 1, 1)]
        );
    }

    #[test]
    fn runner_executes_compute_stages_in_order() {
        let s = session();
        let p = Pipeline::new("two-stage")
            .stage(Stage::new("prep").tasks((0..4).map(|i| {
                TaskDescription::new(format!("prep-{i}"))
                    .kind(TaskKind::compute_secs(2.0))
                    .tag("stage", "prep")
            })))
            .stage(Stage::new("analyze").tasks((0..2).map(|i| {
                TaskDescription::new(format!("analyze-{i}"))
                    .kind(TaskKind::compute_secs(1.0))
                    .tag("stage", "analyze")
            })));
        let report = PipelineRunner::new(&s).run(&p).unwrap();
        assert_eq!(report.stages.len(), 2);
        assert_eq!(report.tasks_done(), 6);
        assert!(report.all_succeeded());
        assert!(report.total_secs >= report.stages[0].duration_secs);
        assert!(report.render().contains("prep"));
        assert_eq!(tasks_by_tag(&p, "stage")["prep"], 4);
        s.close();
    }

    #[test]
    fn runner_executes_multi_node_mpi_stage() {
        // A hybrid stage: one 2-node MPI gang plus a narrow single-node task compete
        // for a 2-node pilot; the scheduler's serve window keeps the narrow task from
        // wedging the stage even when the gang parks first.
        let s = Session::builder("dsl-gang")
            .platform(PlatformId::Local)
            .clock(ClockSpec::scaled(5000.0))
            .build()
            .unwrap();
        s.submit_pilot(PilotDescription::new(PlatformId::Local).nodes(2))
            .unwrap();
        let p = Pipeline::new("hybrid-mpi")
            .stage(
                Stage::new("simulate")
                    .task(
                        TaskDescription::new("md-gang")
                            .kind(TaskKind::compute_secs(1.0))
                            .cores(2)
                            .nodes(2),
                    )
                    .task(
                        TaskDescription::new("narrow")
                            .kind(TaskKind::compute_secs(0.5))
                            .cores(1),
                    ),
            )
            .stage(
                Stage::new("train").task(
                    TaskDescription::new("finetune")
                        .kind(TaskKind::compute_secs(0.5))
                        .gpus(1),
                ),
            );
        let report = PipelineRunner::new(&s).run(&p).unwrap();
        assert!(report.all_succeeded(), "{}", report.render());
        assert_eq!(report.tasks_done(), 3);
        // The gang placement was recorded with its node span.
        assert_eq!(s.metrics().scalar_values("task.gang.nodes"), vec![2.0]);
        s.close();
    }

    #[test]
    fn runner_brings_up_services_before_tasks() {
        let s = session();
        let p = Pipeline::new("svc-stage").stage(
            Stage::new("inference")
                .service(
                    ServiceDescription::new("noop-svc")
                        .model(ModelSpec::noop())
                        .gpus(1),
                )
                .task(
                    TaskDescription::new("client")
                        .kind(TaskKind::inference_client("noop-svc", 4))
                        .after_service("noop-svc"),
                ),
        );
        let report = PipelineRunner::new(&s).run(&p).unwrap();
        assert!(report.all_succeeded());
        assert_eq!(report.stages[0].services_started, 1);
        assert_eq!(s.metrics().response_count(), 4);
        s.close();
    }

    #[test]
    fn keep_alive_services_span_stages() {
        let s = session();
        let p = Pipeline::new("span")
            .stage(
                Stage::new("start-svc")
                    .service(
                        ServiceDescription::new("shared")
                            .model(ModelSpec::noop())
                            .gpus(1),
                    )
                    .keep_services(),
            )
            .stage(Stage::new("use-svc").task(
                TaskDescription::new("client").kind(TaskKind::inference_client("shared", 2)),
            ));
        let report = PipelineRunner::new(&s).run(&p).unwrap();
        assert!(report.all_succeeded(), "{}", report.render());
        assert_eq!(report.tasks_done(), 1);
        s.close();
    }

    #[test]
    fn failed_tasks_are_counted_not_fatal() {
        let s = session();
        // A task demanding more cores than a node has fails its stage but the pipeline
        // report still comes back.
        let p = Pipeline::new("failing").stage(
            Stage::new("bad")
                .task(TaskDescription::new("too-big").cores(1024))
                .task(TaskDescription::new("fine").kind(TaskKind::compute_secs(0.5))),
        );
        let report = PipelineRunner::new(&s).run(&p).unwrap();
        assert_eq!(report.tasks_failed(), 1);
        assert_eq!(report.tasks_done(), 1);
        assert!(!report.all_succeeded());
        s.close();
    }
}
