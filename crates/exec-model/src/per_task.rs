//! Heterogeneous *models* on a homogeneous *platform*.
//!
//! Real workflows mix kernels: a PDGEMM task scales like Model 2, an I/O
//! stage barely scales at all, a stencil follows Amdahl closely. The paper
//! encodes such differences only through per-task `α`; this module lets
//! each task carry a completely different time model, selected by a
//! user-supplied classifier over the task payload — which is exactly the
//! "EMTS works with an arbitrary execution time model" claim stretched to
//! its practical limit.

use crate::ExecutionTimeModel;
use ptg::Task;

/// Dispatches to one of several models based on the task.
///
/// The selector returns an index into `models`; typical selectors key on
/// the task name (kernel type) or cost magnitude.
pub struct PerTaskModel {
    models: Vec<Box<dyn ExecutionTimeModel>>,
    selector: Box<dyn Fn(&Task) -> usize + Send + Sync>,
}

impl PerTaskModel {
    /// Creates the dispatcher.
    ///
    /// # Panics
    /// Panics if `models` is empty.
    pub fn new(
        models: Vec<Box<dyn ExecutionTimeModel>>,
        selector: impl Fn(&Task) -> usize + Send + Sync + 'static,
    ) -> Self {
        assert!(!models.is_empty(), "need at least one model");
        PerTaskModel {
            models,
            selector: Box::new(selector),
        }
    }

    /// The model index task `t` dispatches to (clamped into range).
    pub fn index_for(&self, t: &Task) -> usize {
        (self.selector)(t).min(self.models.len() - 1)
    }
}

impl ExecutionTimeModel for PerTaskModel {
    fn time(&self, task: &Task, p: u32, speed_flops: f64) -> f64 {
        self.models[self.index_for(task)].time(task, p, speed_flops)
    }

    fn name(&self) -> &'static str {
        "per-task"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Amdahl, SyntheticModel};

    fn dispatcher() -> PerTaskModel {
        PerTaskModel::new(
            vec![Box::new(Amdahl), Box::new(SyntheticModel::default())],
            |t: &Task| usize::from(t.name.starts_with("mm")),
        )
    }

    #[test]
    fn tasks_route_to_their_model() {
        let d = dispatcher();
        let plain = Task::new("copy", 8e9, 0.0);
        let mm = Task::new("mm_big", 8e9, 0.0);
        assert_eq!(d.index_for(&plain), 0);
        assert_eq!(d.index_for(&mm), 1);
        // Model 2 penalizes p = 3 by 1.3; Amdahl does not.
        assert_eq!(d.time(&plain, 3, 1e9), Amdahl.time(&plain, 3, 1e9));
        assert!(d.time(&mm, 3, 1e9) > Amdahl.time(&mm, 3, 1e9));
    }

    #[test]
    fn out_of_range_selector_clamps() {
        let d = PerTaskModel::new(vec![Box::new(Amdahl)], |_| 99);
        let t = Task::new("x", 1e9, 0.0);
        assert_eq!(d.index_for(&t), 0);
        assert_eq!(d.time(&t, 2, 1e9), Amdahl.time(&t, 2, 1e9));
    }

    #[test]
    fn works_through_the_time_matrix() {
        use crate::TimeMatrix;
        use ptg::PtgBuilder;
        let mut b = PtgBuilder::new();
        let plain = b.add_task("copy", 8e9, 0.0);
        let mm = b.add_task("mm", 8e9, 0.0);
        b.add_edge(plain, mm).unwrap();
        let g = b.build().unwrap();
        let matrix = TimeMatrix::compute(&g, &dispatcher(), 1e9, 8);
        assert_eq!(matrix.time(plain, 5), Amdahl.time(g.task(plain), 5, 1e9));
        assert!(matrix.time(mm, 5) > matrix.time(mm, 4)); // Model 2 bump
    }

    #[test]
    #[should_panic(expected = "at least one model")]
    fn empty_model_list_panics() {
        let _ = PerTaskModel::new(vec![], |_| 0);
    }
}
