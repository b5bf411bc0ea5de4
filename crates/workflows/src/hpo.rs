//! Hyper-parameter optimisation: a minimal Optuna stand-in.
//!
//! The Cell Painting pipeline drives its ViT fine-tuning with Optuna, exploring learning
//! rate, batch size, weight decay and dropout. This module provides the pieces the
//! pipeline needs: a search space, two samplers (pure random and a quantile-guided
//! sampler that concentrates samples around the best observed trials, TPE-flavoured),
//! and a study object that hands out trials and tracks the best result. The objective is
//! evaluated by the workflow's training tasks, not here.

use std::collections::BTreeMap;

use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;

/// One tunable parameter.
#[derive(Debug, Clone, PartialEq)]
pub struct ParamSpec {
    /// Parameter name (e.g. `learning_rate`).
    pub name: String,
    /// Lower bound (inclusive).
    pub lo: f64,
    /// Upper bound (inclusive).
    pub hi: f64,
    /// Sample in log space (for learning rates, weight decays, ...).
    pub log_scale: bool,
}

impl ParamSpec {
    /// Linear-scale parameter.
    pub fn linear(name: impl Into<String>, lo: f64, hi: f64) -> Self {
        assert!(hi >= lo, "upper bound must be >= lower bound");
        ParamSpec {
            name: name.into(),
            lo,
            hi,
            log_scale: false,
        }
    }

    /// Log-scale parameter (bounds must be positive).
    pub fn log(name: impl Into<String>, lo: f64, hi: f64) -> Self {
        assert!(
            lo > 0.0 && hi >= lo,
            "log-scale bounds must be positive and ordered"
        );
        ParamSpec {
            name: name.into(),
            lo,
            hi,
            log_scale: true,
        }
    }

    fn sample_uniform(&self, rng: &mut StdRng) -> f64 {
        if self.log_scale {
            let (llo, lhi) = (self.lo.ln(), self.hi.ln());
            if lhi > llo {
                rng.gen_range(llo..lhi).exp()
            } else {
                self.lo
            }
        } else if self.hi > self.lo {
            rng.gen_range(self.lo..self.hi)
        } else {
            self.lo
        }
    }

    fn sample_near(&self, center: f64, rng: &mut StdRng) -> f64 {
        let width = if self.log_scale {
            (self.hi.ln() - self.lo.ln()) * 0.15
        } else {
            (self.hi - self.lo) * 0.15
        };
        let draw = |rng: &mut StdRng| {
            let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
            let u2: f64 = rng.gen_range(0.0..1.0);
            (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
        };
        if self.log_scale {
            (center.ln() + width * draw(rng))
                .exp()
                .clamp(self.lo, self.hi)
        } else {
            (center + width * draw(rng)).clamp(self.lo, self.hi)
        }
    }

    /// Whether a value lies within the parameter's bounds.
    pub fn contains(&self, v: f64) -> bool {
        v >= self.lo - 1e-12 && v <= self.hi + 1e-12
    }
}

/// Which sampling strategy a study uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SamplerKind {
    /// Independent uniform sampling.
    Random,
    /// Exploit the best quantile of observed trials (TPE-like behaviour): half the
    /// suggestions are drawn near parameters of top trials, half stay exploratory.
    QuantileGuided,
}

/// One suggested parameter assignment.
#[derive(Debug, Clone, PartialEq)]
pub struct Trial {
    /// Trial index within its study.
    pub id: usize,
    /// Parameter values keyed by name.
    pub params: BTreeMap<String, f64>,
    /// Objective value reported for this trial (`None` until reported).
    pub objective: Option<f64>,
}

/// A hyper-parameter optimisation study (objective is minimised).
#[derive(Debug)]
pub struct HpoStudy {
    space: Vec<ParamSpec>,
    sampler: SamplerKind,
    trials: Vec<Trial>,
    rng: StdRng,
}

impl HpoStudy {
    /// Create a study over the given space.
    pub fn new(space: Vec<ParamSpec>, sampler: SamplerKind, seed: u64) -> Self {
        assert!(!space.is_empty(), "search space must not be empty");
        HpoStudy {
            space,
            sampler,
            trials: Vec::new(),
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// The default Cell Painting search space from the paper's §II-A (learning rate,
    /// batch size, weight decay, dropout rate).
    pub fn cell_painting_space() -> Vec<ParamSpec> {
        vec![
            ParamSpec::log("learning_rate", 1e-5, 1e-2),
            ParamSpec::linear("batch_size", 16.0, 256.0),
            ParamSpec::log("weight_decay", 1e-6, 1e-2),
            ParamSpec::linear("dropout", 0.0, 0.5),
        ]
    }

    /// The search space.
    pub fn space(&self) -> &[ParamSpec] {
        &self.space
    }

    /// Number of trials suggested so far.
    pub fn len(&self) -> usize {
        self.trials.len()
    }

    /// True if no trial has been suggested yet.
    pub fn is_empty(&self) -> bool {
        self.trials.is_empty()
    }

    /// Suggest a new trial.
    pub fn suggest(&mut self) -> Trial {
        let id = self.trials.len();
        let exploit = self.sampler == SamplerKind::QuantileGuided
            && self.best().is_some()
            && self.rng.gen_bool(0.5);
        let mut params = BTreeMap::new();
        if exploit {
            let best = self.best().cloned().expect("checked above");
            for spec in &self.space {
                let center = best
                    .params
                    .get(&spec.name)
                    .copied()
                    .unwrap_or((spec.lo + spec.hi) / 2.0);
                params.insert(spec.name.clone(), spec.sample_near(center, &mut self.rng));
            }
        } else {
            for spec in &self.space {
                params.insert(spec.name.clone(), spec.sample_uniform(&mut self.rng));
            }
        }
        let trial = Trial {
            id,
            params,
            objective: None,
        };
        self.trials.push(trial.clone());
        trial
    }

    /// Report the objective of a previously suggested trial.
    pub fn report(&mut self, trial_id: usize, objective: f64) {
        if let Some(t) = self.trials.get_mut(trial_id) {
            t.objective = Some(objective);
        }
    }

    /// The best (lowest-objective) completed trial, if any.
    pub fn best(&self) -> Option<&Trial> {
        self.trials
            .iter()
            .filter(|t| t.objective.is_some())
            .min_by(|a, b| {
                a.objective
                    .partial_cmp(&b.objective)
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
    }

    /// All trials (suggested and completed).
    pub fn trials(&self) -> &[Trial] {
        &self.trials
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A smooth synthetic objective with its optimum inside the space.
    fn objective(params: &BTreeMap<String, f64>) -> f64 {
        let lr = params["learning_rate"];
        let bs = params["batch_size"];
        (lr.log10() + 3.0).powi(2) + ((bs - 96.0) / 96.0).powi(2)
    }

    #[test]
    fn suggestions_stay_in_bounds() {
        let mut study = HpoStudy::new(HpoStudy::cell_painting_space(), SamplerKind::Random, 1);
        for _ in 0..200 {
            let t = study.suggest();
            for spec in study.space().to_vec() {
                assert!(
                    spec.contains(t.params[&spec.name]),
                    "{} out of bounds",
                    spec.name
                );
            }
        }
        assert_eq!(study.len(), 200);
    }

    #[test]
    fn quantile_guided_beats_or_matches_random() {
        let run = |kind: SamplerKind| -> f64 {
            let mut study = HpoStudy::new(HpoStudy::cell_painting_space(), kind, 7);
            for _ in 0..120 {
                let t = study.suggest();
                let y = objective(&t.params);
                study.report(t.id, y);
            }
            study.best().unwrap().objective.unwrap()
        };
        let random_best = run(SamplerKind::Random);
        let guided_best = run(SamplerKind::QuantileGuided);
        // The guided sampler must find at least a comparably good optimum.
        assert!(
            guided_best <= random_best * 1.5,
            "guided {guided_best} vs random {random_best}"
        );
        assert!(
            guided_best < 1.0,
            "guided sampler should approach the optimum, got {guided_best}"
        );
    }

    #[test]
    fn best_tracks_lowest_objective() {
        let mut study = HpoStudy::new(
            vec![ParamSpec::linear("x", 0.0, 1.0)],
            SamplerKind::Random,
            3,
        );
        assert!(study.best().is_none());
        assert!(study.is_empty());
        let a = study.suggest();
        let b = study.suggest();
        study.report(a.id, 5.0);
        study.report(b.id, 2.0);
        assert_eq!(study.best().unwrap().id, b.id);
        // Reporting an unknown trial id is a no-op.
        study.report(999, -1.0);
        assert_eq!(study.best().unwrap().id, b.id);
        assert_eq!(study.trials().len(), 2);
    }

    #[test]
    fn log_scale_sampling_spans_decades() {
        let mut study = HpoStudy::new(
            vec![ParamSpec::log("lr", 1e-5, 1e-1)],
            SamplerKind::Random,
            11,
        );
        let values: Vec<f64> = (0..500).map(|_| study.suggest().params["lr"]).collect();
        let below_1e_3 = values.iter().filter(|v| **v < 1e-3).count();
        let above_1e_3 = values.len() - below_1e_3;
        // Log-uniform: both halves of the log range should be well represented.
        assert!(
            below_1e_3 > 100 && above_1e_3 > 100,
            "{below_1e_3} / {above_1e_3}"
        );
    }

    #[test]
    #[should_panic(expected = "must not be empty")]
    fn empty_space_rejected() {
        let _ = HpoStudy::new(vec![], SamplerKind::Random, 0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn log_param_requires_positive_bounds() {
        let _ = ParamSpec::log("bad", 0.0, 1.0);
    }

    #[test]
    fn degenerate_bounds_return_constant() {
        let mut study = HpoStudy::new(
            vec![ParamSpec::linear("c", 2.0, 2.0)],
            SamplerKind::Random,
            5,
        );
        for _ in 0..10 {
            assert_eq!(study.suggest().params["c"], 2.0);
        }
    }
}
