//! A named multi-assignment data set with human-readable assignment labels.

use cws_core::weights::MultiWeighted;

/// A multi-assignment data set together with the labels the experiment
/// harness prints (e.g. `"bytes"`, `"packets"`, `"hour3"`, `"Oct 7"`).
#[derive(Debug, Clone, PartialEq)]
pub struct LabeledDataset {
    /// Short data-set name (`"ip1/destIP"`, `"netflix"`, …).
    pub name: String,
    /// The key → weight-vector data.
    pub data: MultiWeighted,
    /// One label per weight assignment, in assignment order.
    pub assignment_labels: Vec<String>,
}

impl LabeledDataset {
    /// Creates a labeled data set.
    ///
    /// # Panics
    /// Panics if the number of labels differs from the number of assignments.
    #[must_use]
    pub(crate) fn new(name: impl Into<String>, data: MultiWeighted, labels: Vec<String>) -> Self {
        assert_eq!(
            labels.len(),
            data.num_assignments(),
            "one label per weight assignment is required"
        );
        Self { name: name.into(), data, assignment_labels: labels }
    }

    /// Number of weight assignments.
    #[must_use]
    pub fn num_assignments(&self) -> usize {
        self.data.num_assignments()
    }

    /// Number of distinct keys.
    #[must_use]
    pub fn num_keys(&self) -> usize {
        self.data.num_keys()
    }

    /// The label of assignment `b`.
    #[must_use]
    pub fn label(&self, assignment: usize) -> &str {
        &self.assignment_labels[assignment]
    }

    /// The assignment index carrying `label`, if any.
    #[must_use]
    pub fn assignment_named(&self, label: &str) -> Option<usize> {
        self.assignment_labels.iter().position(|l| l == label)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data() -> MultiWeighted {
        let mut b = MultiWeighted::builder(2);
        b.add(1, 0, 1.0).add(1, 1, 2.0).add(2, 0, 3.0);
        b.build()
    }

    #[test]
    fn accessors() {
        let ds = LabeledDataset::new("toy", data(), vec!["a".into(), "b".into()]);
        assert_eq!(ds.num_assignments(), 2);
        assert_eq!(ds.num_keys(), 2);
        assert_eq!(ds.label(1), "b");
        assert_eq!(ds.assignment_named("a"), Some(0));
        assert_eq!(ds.assignment_named("z"), None);
    }

    #[test]
    #[should_panic(expected = "one label per weight assignment")]
    fn label_count_must_match() {
        let _ = LabeledDataset::new("toy", data(), vec!["a".into()]);
    }
}
