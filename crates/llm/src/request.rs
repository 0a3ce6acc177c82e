//! Prompt analysis: infer what the user is asking for from the prompt text
//! alone, the way a real model has to.

use wfspeak_corpus::WorkflowSystemId;

/// Which benchmark task a prompt requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskKind {
    /// Generate a workflow configuration file for a system.
    Configuration {
        /// Target workflow system.
        system: WorkflowSystemId,
    },
    /// Annotate a task code with a system's API.
    Annotation {
        /// Target workflow system.
        system: WorkflowSystemId,
    },
    /// Translate annotated task code from one system to another.
    Translation {
        /// Source workflow system.
        source: WorkflowSystemId,
        /// Target workflow system.
        target: WorkflowSystemId,
    },
    /// The prompt did not look like any benchmark task.
    Unknown,
}

impl TaskKind {
    /// The system whose artifact must be produced (the translation target,
    /// the annotation system, or the configuration system).
    pub fn target_system(&self) -> Option<WorkflowSystemId> {
        match self {
            TaskKind::Configuration { system } | TaskKind::Annotation { system } => Some(*system),
            TaskKind::Translation { target, .. } => Some(*target),
            TaskKind::Unknown => None,
        }
    }
}

/// Everything the simulator extracts from a prompt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestAnalysis {
    /// The inferred task.
    pub task: TaskKind,
    /// Whether the prompt embeds a worked configuration example (few-shot).
    pub has_few_shot_example: bool,
    /// Whether the prompt embeds task code (annotation/translation prompts
    /// carry the code below the instructions).
    pub has_embedded_code: bool,
    /// A stable fingerprint of the instruction wording, used to model prompt
    /// sensitivity (different variants → different fingerprints).
    pub wording_fingerprint: u64,
}

/// Mentioned systems in prompt order (first mention first), from the
/// lowercased prompt.
fn mentioned_systems(lower: &str) -> Vec<WorkflowSystemId> {
    let mut found: Vec<(usize, WorkflowSystemId)> = Vec::new();
    for sys in WorkflowSystemId::ALL {
        let needle = sys.name().to_ascii_lowercase();
        if let Some(pos) = lower.find(&needle) {
            found.push((pos, sys));
        }
    }
    found.sort_by_key(|(pos, _)| *pos);
    found.into_iter().map(|(_, s)| s).collect()
}

/// Analyse a prompt.
pub fn analyze(prompt: &str) -> RequestAnalysis {
    let lower = prompt.to_ascii_lowercase();
    let systems = mentioned_systems(&lower);
    let has_embedded_code = prompt.contains("```")
        || prompt.contains("#include")
        || prompt.contains("def ")
        || prompt.contains("int main(");
    let has_few_shot_example = lower.contains("example configuration")
        || (lower.contains("example") && lower.contains("2-node"))
        || (has_embedded_code && lower.contains("follow the same structure"));

    let wants_translation = lower.contains("translate") || lower.contains("port the following");
    let wants_configuration = lower.contains("configuration file")
        || lower.contains("workflow configuration")
        || lower.contains("config file");
    let wants_annotation = lower.contains("annotate") || lower.contains("annotations");

    let task = if wants_translation && systems.len() >= 2 {
        // The translation prompts name the source system first ("Task codes
        // are provided below for the X workflow system ... translate these
        // codes to use the Y system"), except the detailed/reordered
        // variants, which we disambiguate by "to use the <target> system" /
        // "into the <target>".
        let target = find_target_of_translation(&lower, &systems);
        let source = systems
            .iter()
            .copied()
            .find(|s| Some(*s) != Some(target))
            .unwrap_or(systems[0]);
        TaskKind::Translation { source, target }
    } else if wants_configuration && !systems.is_empty() && !has_embedded_code {
        TaskKind::Configuration { system: systems[0] }
    } else if wants_annotation && !systems.is_empty() {
        TaskKind::Annotation { system: systems[0] }
    } else if wants_configuration && !systems.is_empty() {
        TaskKind::Configuration { system: systems[0] }
    } else {
        TaskKind::Unknown
    };

    // Fingerprint only the instruction part (before any embedded code),
    // so the same wording with different embedded code hashes identically.
    // Lowercasing maps ASCII letters byte for byte and leaves the backticks
    // alone, so this is the lowercased first segment of the prompt.
    let instructions = lower.split("```").next().unwrap_or(&lower);
    let mut fingerprint: u64 = 0xcbf29ce484222325;
    for b in instructions.bytes() {
        fingerprint ^= b as u64;
        fingerprint = fingerprint.wrapping_mul(0x100000001b3);
    }

    RequestAnalysis {
        task,
        has_few_shot_example,
        has_embedded_code,
        wording_fingerprint: fingerprint,
    }
}

fn find_target_of_translation(lower: &str, systems: &[WorkflowSystemId]) -> WorkflowSystemId {
    // Patterns that directly name the target.
    for sys in systems {
        let name = sys.name().to_ascii_lowercase();
        for pattern in [
            format!("to use the {name} system"),
            format!("to use {name}"),
            format!("into the {name} workflow system"),
            format!("into the {name} system"),
            format!("run under the {name} workflow system"),
            format!("run with {name}"),
        ] {
            if lower.contains(&pattern) {
                return *sys;
            }
        }
    }
    // Fall back to the second mentioned system.
    systems.get(1).copied().unwrap_or(systems[0])
}

#[cfg(test)]
mod tests {
    use super::*;
    use wfspeak_corpus::prompts::{
        annotation_prompt, configuration_prompt, translation_prompt, PromptVariant,
    };
    use wfspeak_corpus::{fewshot, translation_pairs};

    #[test]
    fn configuration_prompts_detected_for_all_variants_and_systems() {
        for sys in WorkflowSystemId::configuration_systems() {
            for variant in PromptVariant::ALL {
                let prompt = configuration_prompt(sys, variant);
                let analysis = analyze(&prompt);
                assert_eq!(
                    analysis.task,
                    TaskKind::Configuration { system: sys },
                    "variant {variant} for {sys}"
                );
                assert!(!analysis.has_few_shot_example);
            }
        }
    }

    #[test]
    fn annotation_prompts_detected_for_all_variants_and_systems() {
        for sys in WorkflowSystemId::annotation_systems() {
            for variant in PromptVariant::ALL {
                let prompt = annotation_prompt(sys, variant);
                let analysis = analyze(&prompt);
                assert_eq!(
                    analysis.task,
                    TaskKind::Annotation { system: sys },
                    "variant {variant} for {sys}"
                );
                assert!(analysis.has_embedded_code);
            }
        }
    }

    #[test]
    fn translation_prompts_detect_source_and_target() {
        for (source, target) in translation_pairs() {
            for variant in PromptVariant::ALL {
                let prompt = translation_prompt(source, target, variant);
                let analysis = analyze(&prompt);
                assert_eq!(
                    analysis.task,
                    TaskKind::Translation { source, target },
                    "variant {variant} for {source}->{target}"
                );
            }
        }
    }

    #[test]
    fn few_shot_augmentation_detected() {
        let base = configuration_prompt(WorkflowSystemId::Wilkins, PromptVariant::Original);
        let aug = fewshot::augment_configuration_prompt(&base, WorkflowSystemId::Wilkins);
        assert!(analyze(&aug).has_few_shot_example);
        assert!(!analyze(&base).has_few_shot_example);
        // Still recognised as a configuration request.
        assert_eq!(
            analyze(&aug).task,
            TaskKind::Configuration {
                system: WorkflowSystemId::Wilkins
            }
        );
    }

    #[test]
    fn wording_fingerprint_differs_per_variant_but_not_per_trial() {
        let a = analyze(&configuration_prompt(
            WorkflowSystemId::Wilkins,
            PromptVariant::Original,
        ));
        let b = analyze(&configuration_prompt(
            WorkflowSystemId::Wilkins,
            PromptVariant::Detailed,
        ));
        let a2 = analyze(&configuration_prompt(
            WorkflowSystemId::Wilkins,
            PromptVariant::Original,
        ));
        assert_ne!(a.wording_fingerprint, b.wording_fingerprint);
        assert_eq!(a.wording_fingerprint, a2.wording_fingerprint);
    }

    #[test]
    fn unrelated_prompt_is_unknown() {
        let analysis = analyze("What is the weather like in St. Louis in November?");
        assert_eq!(analysis.task, TaskKind::Unknown);
        assert_eq!(analysis.task.target_system(), None);
    }

    #[test]
    fn target_system_accessor() {
        assert_eq!(
            TaskKind::Translation {
                source: WorkflowSystemId::Adios2,
                target: WorkflowSystemId::Henson
            }
            .target_system(),
            Some(WorkflowSystemId::Henson)
        );
        assert_eq!(
            TaskKind::Configuration {
                system: WorkflowSystemId::Wilkins
            }
            .target_system(),
            Some(WorkflowSystemId::Wilkins)
        );
    }
}
