//! Degradation operators: turn a ground-truth artifact into the kind of
//! output an imperfectly informed model produces.
//!
//! The operators encode the paper's observed failure modes:
//!
//! * configuration: hallucinated fields (`inputs`, `outputs`, `command`,
//!   `dependencies`), wrong format (YAML for a Henson script, XML for an
//!   ADIOS2 YAML config), or answering with task code instead of a
//!   configuration file;
//! * annotation / translation: nonexistent API calls (`henson_put`,
//!   `henson_declare_variable`, `henson_data_init`), missing required calls
//!   (`compss_wait_on_file`), redundant boilerplate (unrequested Parsl
//!   executors), or mechanically renaming the source system's API instead of
//!   translating it (LLaMA in Table 4, left).
//!
//! How much damage is applied is controlled by a *degradation level* in
//! `[0, 1]`, quantised into five tiers.
//!
//! Code below the exact tier is also reworded by `style_rewrite`, whose
//! identifier renames are the costliest step of a simulated completion. It
//! renames in one scan over the text rather than one pass per pair: each
//! maximal run of ASCII identifier bytes (`[A-Za-z0-9_]`; a byte of 0x80 or
//! above ends a run) that equals a drawn pair's `from` is replaced by its
//! `to`. That equals renaming pair by pair in table order only while no
//! pair's `to` is a later pair's `from` in the same table; a unit test
//! holds both tables to it, and a differential property test holds the
//! scan to the pair-by-pair renamer.

use rand::rngs::StdRng;
use rand::Rng;

use wfspeak_corpus::references::{annotated, configs};
use wfspeak_corpus::{task_codes, WorkflowSystemId};

use crate::ModelId;

/// Quality tiers derived from a degradation level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Tier {
    /// Essentially the reference.
    Exact,
    /// Minor deviations (cosmetic edits, a dropped optional field).
    Minor,
    /// Moderate problems (renamed fields, one hallucination, omissions).
    Moderate,
    /// Structurally wrong but still the right kind of artifact.
    Poor,
    /// The wrong kind of artifact (task code instead of a config, an
    /// unannotated or mechanically renamed program).
    Wrong,
}

/// Map a level to a tier.
pub fn tier(level: f64) -> Tier {
    match level {
        l if l < 0.15 => Tier::Exact,
        l if l < 0.35 => Tier::Minor,
        l if l < 0.60 => Tier::Moderate,
        l if l < 0.80 => Tier::Poor,
        _ => Tier::Wrong,
    }
}

/// Generate a (possibly degraded) configuration file for `system`.
pub fn degrade_config(
    system: WorkflowSystemId,
    level: f64,
    model: ModelId,
    rng: &mut StdRng,
) -> String {
    let reference = match system {
        WorkflowSystemId::Wilkins => configs::WILKINS_3NODE,
        WorkflowSystemId::Adios2 => configs::ADIOS2_3NODE,
        WorkflowSystemId::Henson => configs::HENSON_3NODE,
        // Parsl / PyCOMPSs have no workflow-structure config; an LLM asked
        // anyway produces an executor / project file sketch.
        WorkflowSystemId::Parsl => {
            return parsl_environment_config_sketch();
        }
        WorkflowSystemId::PyCompss => {
            return pycompss_environment_config_sketch();
        }
    };
    match tier(level) {
        Tier::Exact => reference.to_owned(),
        Tier::Minor => minor_config_edits(reference, system, rng),
        Tier::Moderate => moderate_config_edits(reference, system, rng),
        Tier::Poor => poor_config_rewrite(system, model, rng),
        Tier::Wrong => wrong_artifact_for_config(system, rng),
    }
}

/// Generate a (possibly degraded) annotated/translated task code whose
/// target system is `target`.  `source` is set for translation requests and
/// enables the mechanical-rename failure mode.
pub fn degrade_code(
    target: WorkflowSystemId,
    source: Option<WorkflowSystemId>,
    level: f64,
    model: ModelId,
    rng: &mut StdRng,
) -> String {
    let reference = match target {
        WorkflowSystemId::Adios2 => annotated::ADIOS2_PRODUCER,
        WorkflowSystemId::Henson => annotated::HENSON_PRODUCER,
        WorkflowSystemId::Parsl => annotated::PARSL_PRODUCER,
        WorkflowSystemId::PyCompss => annotated::PYCOMPSS_PRODUCER,
        WorkflowSystemId::Wilkins => task_codes::C_PRODUCER,
    };
    // The stylistic divergence from the reference grows continuously with
    // the level, so small level differences (e.g. translation being slightly
    // harder than annotation) show up in the scores even within a tier.
    let intensity = (level * 1.2).clamp(0.0, 1.0);
    match tier(level) {
        Tier::Exact => reference.to_owned(),
        Tier::Minor => {
            let text = minor_code_edits(reference, rng);
            style_rewrite(&text, target.uses_python_tasks(), intensity, rng)
        }
        Tier::Moderate => {
            let text = moderate_code_edits(reference, target, model, rng);
            style_rewrite(&text, target.uses_python_tasks(), intensity, rng)
        }
        Tier::Poor => {
            let text = poor_code_edits(reference, target, model, rng);
            style_rewrite(&text, target.uses_python_tasks(), intensity, rng)
        }
        Tier::Wrong => wrong_code(target, source, model, rng),
    }
}

/// Local identifiers `style_rewrite` renames in Python task code, as
/// `(from, to)` pairs in the order their draws are made. No pair's `to` is
/// a later pair's `from` (see [`rename_identifiers`]).
const PYTHON_RENAMES: &[(&str, &str)] = &[
    ("array", "values"),
    ("total", "checksum"),
    ("n", "num_values"),
    ("iterations", "num_steps"),
    ("sleep_interval", "delay"),
    ("outfile", "output_path"),
    ("infile", "input_path"),
    ("produce", "run_producer"),
    ("t", "step"),
];

/// Local identifiers `style_rewrite` renames in C task code; the same rule
/// as [`PYTHON_RENAMES`] holds.
const C_RENAMES: &[(&str, &str)] = &[
    ("total_sum", "global_sum"),
    ("array", "data"),
    ("sum", "local_sum"),
    ("engine", "writer"),
    ("iterations", "num_steps"),
    ("sleep_interval", "delay"),
    ("i", "idx"),
    ("rank", "world_rank"),
    ("size", "world_size"),
    ("t", "step"),
];

/// Whether `b` can be part of an identifier. A byte of 0x80 or above (any
/// part of a non-ASCII char) cannot, so a non-ASCII letter ends an
/// identifier.
fn is_ident(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Rename whole identifiers in one scan: every maximal run of identifier
/// bytes that equals a `from` of `pairs` becomes that pair's `to` (the
/// first such pair, though the tables hold each `from` once); everything
/// else is copied unchanged, a span at a time.
///
/// Renaming with each pair in turn would give the same text as long as no
/// pair's `to` is a later pair's `from`: a `to` fills a whole run, so only
/// a later pair with that `from` could see it.
fn rename_identifiers(text: &str, pairs: &[(&str, &str)]) -> String {
    let bytes = text.as_bytes();
    let mut out = String::with_capacity(text.len() + text.len() / 8);
    let mut copied = 0;
    let mut i = 0;
    while i < bytes.len() {
        if !is_ident(bytes[i]) {
            i += 1;
            continue;
        }
        let start = i;
        while i < bytes.len() && is_ident(bytes[i]) {
            i += 1;
        }
        let word = &text[start..i];
        if let Some((_, to)) = pairs.iter().find(|(from, _)| *from == word) {
            out.push_str(&text[copied..start]);
            out.push_str(to);
            copied = i;
        }
    }
    out.push_str(&text[copied..]);
    out
}

/// Pervasive but plausible stylistic divergence from the reference: a model
/// that "knows" the right API rarely reproduces the reference word for word.
/// Renames local identifiers (never API calls), drops comments and blank
/// lines, and reworks log strings; `intensity` in [0, 1] controls how much.
///
/// The first `intensity` share of the language's rename table is drawn
/// pair by pair (each kept with probability 0.9, in table order), and the
/// kept pairs are applied together in one scan by [`rename_identifiers`],
/// which gives the text renaming pair by pair would because neither table
/// has a pair whose `to` is a later pair's `from`.
fn style_rewrite(text: &str, python: bool, intensity: f64, rng: &mut StdRng) -> String {
    let renames = if python { PYTHON_RENAMES } else { C_RENAMES };
    let count = ((renames.len() as f64) * intensity).round() as usize;
    let kept: Vec<(&str, &str)> = renames
        .iter()
        .take(count)
        .filter(|_| rng.gen_bool(0.9))
        .copied()
        .collect();
    let mut out = rename_identifiers(text, &kept);
    if intensity >= 0.5 {
        // Drop comments and collapse blank lines: models rarely carry the
        // user's comments through verbatim.
        let comment_prefix = if python { "#" } else { "/*" };
        out = out
            .lines()
            .filter(|l| {
                let trimmed = l.trim_start();
                (!trimmed.starts_with(comment_prefix) || trimmed.starts_with("#include"))
                    && !trimmed.starts_with("//")
            })
            .collect::<Vec<_>>()
            .join("\n")
            + "\n";
    }
    if intensity >= 0.5 && rng.gen_bool(0.7) {
        out = out.replace("Simulation [t=", "simulation step ");
        out = out.replace("Using %zu random numbers", "Generating %zu random values");
        out = out.replace("Using {n} random numbers", "Generating {n} random values");
    }
    if intensity >= 0.55 {
        // Models frequently drop the logging, sleep throttling, seeding and
        // command-line parsing of the original code when rewriting it.
        out = out
            .lines()
            .filter(|l| {
                let t = l.trim_start();
                !(t.contains("printf(")
                    || t.starts_with("print(")
                    || t.contains("sleep(")
                    || t.contains("sleep_interval") && t.contains("argv")
                    || t.contains("srand(")
                    || t.contains("argc >")
                    || t.contains("sys.argv"))
            })
            .collect::<Vec<_>>()
            .join("\n")
            + "\n";
    }
    if intensity >= 0.8 {
        // Heavier structural loss: the MPI reduction disappears too.
        out = out
            .lines()
            .filter(|l| {
                let t = l.trim_start();
                !(t.contains("MPI_Reduce")
                    || t.contains("total_sum")
                    || t.contains("global_sum")
                    || t.starts_with("if (rank == 0)")
                    || t.starts_with("if (world_rank == 0)"))
            })
            .collect::<Vec<_>>()
            .join("\n")
            + "\n";
    }
    if intensity >= 0.9 {
        out = out
            .lines()
            .filter(|l| !l.trim().is_empty())
            .collect::<Vec<_>>()
            .join("\n")
            + "\n";
    }
    out
}

// ---------------------------------------------------------------------------
// Configuration degradations
// ---------------------------------------------------------------------------

fn minor_config_edits(reference: &str, system: WorkflowSystemId, rng: &mut StdRng) -> String {
    let mut text = reference.to_owned();
    match system {
        WorkflowSystemId::Wilkins => {
            if rng.gen_bool(0.5) {
                text = text.replace("outfile.h5", "output.h5");
            }
            if rng.gen_bool(0.5) {
                // Dropping the `file:` flags keeps the config valid but
                // deviates from the reference text.
                text = text
                    .lines()
                    .filter(|l| !l.trim_start().starts_with("file:"))
                    .collect::<Vec<_>>()
                    .join("\n")
                    + "\n";
            }
        }
        WorkflowSystemId::Adios2 => {
            if rng.gen_bool(0.5) {
                text = text.replace("QueueLimit: 1", "QueueLimit: 5");
            }
            if rng.gen_bool(0.5) {
                text = text.replace("RendezvousReaderCount: 1\n    QueueLimit: 1\n", "");
            }
        }
        WorkflowSystemId::Henson => {
            if rng.gen_bool(0.5) {
                text = text.replace("./producer.so 50 3", "./producer.so 100 3");
            }
            if rng.gen_bool(0.5) {
                text = text.replace("consumer_particles.so", "consumer2.so");
            }
        }
        _ => {}
    }
    text
}

fn moderate_config_edits(reference: &str, system: WorkflowSystemId, rng: &mut StdRng) -> String {
    match system {
        WorkflowSystemId::Wilkins => {
            let mut text = reference.to_owned();
            // Field renamings that do not exist in Wilkins.
            text = text.replace("nprocs:", "procs:");
            if rng.gen_bool(0.6) {
                text = text.replace("func:", "name:");
            }
            if rng.gen_bool(0.5) {
                text = text.replace("dsets:", "datasets:");
                text = text.replace("outports:", "outputs:");
                text = text.replace("inports:", "inputs:");
            }
            // Drop the per-dataset placement flags.
            if rng.gen_bool(0.6) {
                text = text
                    .lines()
                    .filter(|l| {
                        let t = l.trim_start();
                        !t.starts_with("file:") && !t.starts_with("memory:")
                    })
                    .collect::<Vec<_>>()
                    .join("\n")
                    + "\n";
            }
            // Forget one of the dataset blocks.
            if rng.gen_bool(0.6) {
                text = text.replace(
                    "          - name: /group1/particles\n            file: 0\n            memory: 1\n  - func: consumer1",
                    "  - func: consumer1",
                );
                text = text.replace("/group1/particles", "particles");
                text = text.replace("/group1/grid", "grid");
            }
            if rng.gen_bool(0.5) {
                text = text.replace("outfile.h5", "data.h5");
            }
            text
        }
        WorkflowSystemId::Adios2 => {
            let mut text = reference.to_owned();
            if rng.gen_bool(0.7) {
                // Drop the reader IOs entirely.
                if let Some(pos) = text.find("- IO: GridReader") {
                    text.truncate(pos);
                }
            }
            if rng.gen_bool(0.6) {
                text = text.replace("Variables:", "variables:");
                text = text.replace("Variable:", "name:");
                text = text.replace("Shape:", "shape:");
                text = text.replace("Type: float", "type: float");
            }
            if rng.gen_bool(0.5) {
                text = text.replace("Type: SST", "Type: InSituMPI");
            }
            if rng.gen_bool(0.5) {
                text = text.replace("    RendezvousReaderCount: 1\n    QueueLimit: 1\n", "");
                text = text.replace("- IO: GridStream", "- IO: SimulationOutput");
                text = text.replace("- IO: ParticlesStream", "- IO: SimulationParticles");
            }
            text
        }
        WorkflowSystemId::Henson => {
            let mut text = reference.to_owned();
            // Forget the process-group lines: the script no longer says
            // where tasks run.
            text = text
                .lines()
                .filter(|l| !l.trim_start().starts_with('['))
                .collect::<Vec<_>>()
                .join("\n")
                + "\n";
            if rng.gen_bool(0.6) {
                // Drift towards a `key: value` pseudo-YAML syntax.
                text = text.replace(" = ", ": ");
                text = text.replace("  =", ":");
            }
            if rng.gen_bool(0.5) {
                text.push_str("\nworld = producer consumer1 consumer2\nprocs = 5\n");
            } else {
                text.push_str("\nschedule:\n  producer: 3\n  consumer1: 1\n  consumer2: 1\n");
            }
            text
        }
        _ => reference.to_owned(),
    }
}

/// Structurally wrong but recognisably a configuration file — the Table 6
/// (right) style output.
fn poor_config_rewrite(system: WorkflowSystemId, model: ModelId, rng: &mut StdRng) -> String {
    match system {
        WorkflowSystemId::Wilkins => {
            let comment = if rng.gen_bool(0.5) {
                "#wilkins_workflow.yaml\n\n"
            } else {
                ""
            };
            format!(
                "{comment}workflow:\n  name: simple_3node_workflow\n  datasets:\n    grid: {{}}\n    particles: {{}}\n  tasks:\n    producer:\n      command: ./producer\n      processes: 3\n      outputs:\n        - grid\n        - particles\n    consumer1:\n      command: ./consumer_grid\n      processes: 1\n      inputs:\n        - grid\n    consumer2:\n      command: ./consumer_particles\n      processes: 1\n      inputs:\n        - particles\n  dependencies:\n    - from: producer\n      to: consumer1\n      datasets:\n        - grid\n    - from: producer\n      to: consumer2\n      datasets:\n        - particles\n"
            )
        }
        WorkflowSystemId::Adios2 => {
            // XML configuration instead of the requested YAML one; valid for
            // ADIOS2 generally but not what the reference uses.
            format!(
                "<?xml version=\"1.0\"?>\n<adios-config>\n  <io name=\"SimulationOutput\">\n    <engine type=\"{}\">\n      <parameter key=\"RendezvousReaderCount\" value=\"1\"/>\n    </engine>\n  </io>\n  <io name=\"AnalysisInput\">\n    <engine type=\"SST\"/>\n  </io>\n</adios-config>\n",
                if model == ModelId::Llama33_70B { "BPFile" } else { "SST" }
            )
        }
        WorkflowSystemId::Henson => {
            // YAML instead of a Henson script — the "LLMs struggle to infer
            // what configuration means" failure.
            "workflow:\n  tasks:\n    - name: producer\n      executable: ./producer\n      nprocs: 3\n      outputs: [grid, particles]\n    - name: consumer1\n      executable: ./consumer_grid\n      nprocs: 1\n      inputs: [grid]\n    - name: consumer2\n      executable: ./consumer_particles\n      nprocs: 1\n      inputs: [particles]\n".to_owned()
        }
        _ => String::new(),
    }
}

/// The wrong kind of artifact entirely: a task-code snippet instead of a
/// configuration file (a failure mode the paper reports explicitly).
fn wrong_artifact_for_config(system: WorkflowSystemId, rng: &mut StdRng) -> String {
    let snippet = match system {
        WorkflowSystemId::Henson => {
            "// Henson workflow setup\n#include <henson/context.h>\n\nint main(int argc, char** argv)\n{\n    while (henson_active())\n    {\n        simulate();\n        henson_yield();\n    }\n    return 0;\n}\n"
        }
        WorkflowSystemId::Adios2 => {
            "// ADIOS2 workflow setup\nadios2::ADIOS adios(MPI_COMM_WORLD);\nadios2::IO io = adios.DeclareIO(\"SimulationOutput\");\nadios2::Engine engine = io.Open(\"output.bp\", adios2::Mode::Write);\n"
        }
        _ => {
            "def build_workflow():\n    producer = Task(\"producer\", procs=3, outputs=[\"grid\", \"particles\"])\n    consumer1 = Task(\"consumer1\", procs=1, inputs=[\"grid\"])\n    consumer2 = Task(\"consumer2\", procs=1, inputs=[\"particles\"])\n    return Workflow([producer, consumer1, consumer2])\n"
        }
    };
    if rng.gen_bool(0.5) {
        format!(
            "To set up this workflow you can use the following snippet instead of a configuration file.\n\n{snippet}"
        )
    } else {
        snippet.to_owned()
    }
}

fn parsl_environment_config_sketch() -> String {
    "from parsl.config import Config\nfrom parsl.executors import HighThroughputExecutor\n\nconfig = Config(\n    executors=[HighThroughputExecutor(label=\"htex\", max_workers=5)],\n)\n".to_owned()
}

fn pycompss_environment_config_sketch() -> String {
    "<Project>\n  <MasterNode/>\n  <ComputeNode Name=\"localhost\">\n    <InstallDir>/opt/COMPSs/</InstallDir>\n    <WorkingDir>/tmp/</WorkingDir>\n  </ComputeNode>\n</Project>\n".to_owned()
}

// ---------------------------------------------------------------------------
// Code degradations
// ---------------------------------------------------------------------------

fn minor_code_edits(reference: &str, rng: &mut StdRng) -> String {
    let mut text = reference.to_owned();
    if rng.gen_bool(0.5) {
        text = text.replace("output.bp", "simulation_output.bp");
        text = text.replace("output.txt", "producer_output.txt");
    }
    if rng.gen_bool(0.5) {
        text = text.replace("    float sum = 0;", "    float sum = 0.0f;");
        text = text.replace("    total = sum(array)", "    total = float(sum(array))");
    }
    if rng.gen_bool(0.4) {
        // A harmless extra comment.
        text = text.replace(
            "int main(int argc, char** argv)",
            "/* producer task for the workflow */\nint main(int argc, char** argv)",
        );
    }
    text
}

/// Model-specific hallucinated substitutions for each target system.
fn hallucination_substitutions(
    target: WorkflowSystemId,
    model: ModelId,
) -> Vec<(&'static str, &'static str)> {
    match (target, model) {
        (WorkflowSystemId::Henson, ModelId::O3) => vec![
            ("henson_save_array(\"array\", array, sizeof(float), n, sizeof(float));", "henson_put(\"array\", array, n);"),
            ("henson_save_int(\"t\", t);", "henson_put(\"t\", &t);"),
        ],
        (WorkflowSystemId::Henson, ModelId::Gemini25Pro) => vec![
            (
                "henson_save_array(\"array\", array, sizeof(float), n, sizeof(float));",
                "henson_data_t array_hd;\n        henson_data_init(&array_hd, HENSON_FLOAT, n, array);\n        henson_save(\"array\", &array_hd);",
            ),
            (
                "henson_save_int(\"t\", t);",
                "henson_data_t t_hd;\n        henson_data_init_scalar(&t_hd, HENSON_INT, &t);\n        henson_save(\"t\", &t_hd);",
            ),
        ],
        (WorkflowSystemId::Henson, ModelId::ClaudeSonnet4) => vec![
            ("henson_save_int(\"t\", t);", "henson_declare_variable(\"t\", &t);"),
        ],
        (WorkflowSystemId::Henson, ModelId::Llama33_70B) => vec![
            ("henson_save_array(\"array\", array, sizeof(float), n, sizeof(float));", "henson_put_var(output, varArray, array);"),
            ("henson_save_int(\"t\", t);", "henson_put_var(output, varT, &t);"),
        ],
        (WorkflowSystemId::Adios2, ModelId::Llama33_70B) => vec![
            ("adios2_begin_step(engine, adios2_step_mode_append, -1.0, &status);", "adios2_write_begin(engine);"),
        ],
        (WorkflowSystemId::Adios2, _) => vec![
            ("adios2_put(engine, var_t, &t, adios2_mode_deferred);", "adios2_put_scalar(engine, \"t\", &t);"),
        ],
        (WorkflowSystemId::PyCompss, ModelId::Llama33_70B) => vec![
            ("compss_wait_on_file", "compss_barrier_for_file"),
        ],
        (WorkflowSystemId::PyCompss, _) => vec![
            ("compss_wait_on_file", "compss_wait_on"),
        ],
        (WorkflowSystemId::Parsl, _) => vec![
            ("parsl.load()", "parsl.load(config)"),
        ],
        _ => vec![],
    }
}

fn moderate_code_edits(
    reference: &str,
    target: WorkflowSystemId,
    model: ModelId,
    rng: &mut StdRng,
) -> String {
    let mut text = minor_code_edits(reference, rng);
    let substitutions = hallucination_substitutions(target, model);
    // Always apply the model's first (most characteristic) substitution at
    // this tier; sometimes a second one.
    for (i, (from, to)) in substitutions.iter().enumerate() {
        if i == 0 || rng.gen_bool(0.4) {
            text = text.replace(from, to);
        }
    }
    // Redundant Parsl boilerplate: legal, unrequested, hurts BLEU.
    if target == WorkflowSystemId::Parsl && rng.gen_bool(0.7) {
        text = text.replace(
            "import parsl\nfrom parsl import python_app",
            "import parsl\nfrom parsl import python_app\nfrom parsl.config import Config\nfrom parsl.executors import HighThroughputExecutor\n\nconfig = Config(\n    executors=[HighThroughputExecutor(label=\"htex_local\", max_workers=4)],\n)",
        );
        text = text.replace("parsl.load()", "parsl.load(config)");
    }
    // Occasionally forget the required synchronisation call entirely
    // (LLaMA's characteristic PyCOMPSs mistake).
    if target == WorkflowSystemId::PyCompss && model == ModelId::Llama33_70B && rng.gen_bool(0.6) {
        text = text
            .lines()
            .filter(|l| !l.contains("wait_on_file") && !l.contains("barrier_for_file"))
            .collect::<Vec<_>>()
            .join("\n")
            + "\n";
    }
    text
}

fn poor_code_edits(
    reference: &str,
    target: WorkflowSystemId,
    model: ModelId,
    rng: &mut StdRng,
) -> String {
    let mut text = minor_code_edits(reference, rng);
    // Apply every model-specific hallucination.
    for (from, to) in hallucination_substitutions(target, model) {
        text = text.replace(from, to);
    }
    match target {
        WorkflowSystemId::Henson => {
            // Invent an init/finalize lifecycle (Table 4, right) and switch
            // the timestep loop to an invented `while (henson_active())`
            // structure, dropping the iteration-count handling.
            text = text.replace(
                "    srand(time(NULL) + rank);",
                "    srand(time(NULL) + rank);\n\n    henson_init(argc, argv, MPI_COMM_WORLD);",
            );
            text = text.replace(
                "    MPI_Finalize();",
                "    henson_finalize();\n\n    MPI_Finalize();",
            );
            text = text.replace(
                "    int t;\n    for (t = 0; t < iterations; ++t) {",
                "    int t = 0;\n    while (henson_active())\n    {",
            );
            text = text.replace(
                "        free(array);\n    }",
                "        free(array);\n        t++;\n    }",
            );
            text = text.replace(
                "    int iterations = 3;\n    if (argc > 2) iterations = atoi(argv[2]);\n\n",
                "",
            );
            if rng.gen_bool(0.5) {
                text = text.replace("    int rank, size;\n    MPI_Comm_rank(MPI_COMM_WORLD, &rank);\n    MPI_Comm_size(MPI_COMM_WORLD, &size);", "    int rank = henson_rank();\n    int size = henson_size();");
            }
        }
        WorkflowSystemId::Adios2 => {
            text = text.replace(
                "adios2_adios* adios = adios2_init_mpi(MPI_COMM_WORLD);",
                "adios2_adios* adios = adios2_init(MPI_COMM_WORLD, adios2_debug_mode_on);",
            );
            if rng.gen_bool(0.5) {
                text = text.replace(
                    "adios2_end_step(engine);",
                    "adios2_flush(engine);\n        adios2_end_step(engine);",
                );
            }
        }
        WorkflowSystemId::PyCompss => {
            text = text.replace("from pycompss.api.parameter import FILE_OUT\n", "");
            text = text.replace("@task(outfile=FILE_OUT)", "@task(returns=1)");
            if rng.gen_bool(0.5) {
                text = text.replace(
                    "    compss_wait_on_file(\"output.txt\")\n",
                    "    compss_barrier()\n",
                );
            }
        }
        WorkflowSystemId::Parsl => {
            text = text.replace("@python_app\n", "@parsl_app\n");
            if rng.gen_bool(0.5) {
                text = text.replace("    future.result()\n", "");
            }
        }
        WorkflowSystemId::Wilkins => {}
    }
    let _ = model;
    text
}

/// Entirely wrong output: unannotated code, or — for translation — a
/// mechanical rename of the source system's API (Table 4, left).
fn wrong_code(
    target: WorkflowSystemId,
    source: Option<WorkflowSystemId>,
    model: ModelId,
    rng: &mut StdRng,
) -> String {
    if let Some(source) = source {
        // Mechanical rename of the source API into the target's prefix.
        let source_code = match source {
            WorkflowSystemId::Adios2 => annotated::ADIOS2_PRODUCER,
            WorkflowSystemId::Henson => annotated::HENSON_PRODUCER,
            WorkflowSystemId::Parsl => annotated::PARSL_PRODUCER,
            WorkflowSystemId::PyCompss => annotated::PYCOMPSS_PRODUCER,
            WorkflowSystemId::Wilkins => task_codes::C_PRODUCER,
        };
        let renamed = match (source, target) {
            (WorkflowSystemId::Adios2, WorkflowSystemId::Henson) => source_code
                .replace("adios2_c.h", "henson.h")
                .replace("adios2_adios", "henson_t")
                .replace("adios2_io", "henson_stage_t")
                .replace("adios2_variable", "henson_var_t")
                .replace("adios2_engine", "henson_output_t")
                .replace("adios2_init_mpi", "henson_init")
                .replace("adios2_declare_io", "henson_declare_stage")
                .replace("adios2_define_variable", "henson_declare_var")
                .replace("adios2_open", "henson_open_output")
                .replace("adios2_begin_step", "henson_begin_step")
                .replace("adios2_put", "henson_put_var")
                .replace("adios2_end_step", "henson_end_step")
                .replace("adios2_close", "henson_close_output")
                .replace("adios2_finalize", "henson_finalize")
                .replace("adios2_type_float", "HENSON_FLOAT")
                .replace("adios2_type_int32_t", "HENSON_INT"),
            (WorkflowSystemId::Henson, WorkflowSystemId::Adios2) => source_code
                .replace("henson/data.h", "adios2_c.h")
                .replace("henson/context.h", "adios2_c.h")
                .replace("henson_save_array", "adios2_save_array")
                .replace("henson_save_int", "adios2_save_int")
                .replace("henson_yield", "adios2_yield"),
            (WorkflowSystemId::Parsl, WorkflowSystemId::PyCompss) => source_code
                .replace(
                    "import parsl\nfrom parsl import python_app",
                    "from pycompss import compss_app",
                )
                .replace("@python_app", "@compss_app")
                .replace("parsl.load()", "compss_start()")
                .replace("future.result()", "compss_wait(future)"),
            (WorkflowSystemId::PyCompss, WorkflowSystemId::Parsl) => source_code
                .replace(
                    "from pycompss.api.task import task",
                    "from parsl import task",
                )
                .replace("from pycompss.api.parameter import FILE_OUT\n", "")
                .replace(
                    "from pycompss.api.api import compss_wait_on_file",
                    "from parsl import parsl_wait_on_file",
                )
                .replace("@task(outfile=FILE_OUT)", "@task()")
                .replace("compss_wait_on_file", "parsl_wait_on_file"),
            _ => source_code.to_owned(),
        };
        let _ = model;
        // The renamed program also drifts heavily in style (Table 4 left is
        // a whole rewritten file, not a diff of the reference).
        return style_rewrite(&renamed, target.uses_python_tasks(), 0.85, rng);
    }
    // Annotation request answered with a skeletal rewrite that throws away
    // most of the provided code — the kind of output behind the paper's
    // single-digit BLEU cells (e.g. LLaMA-3.3-70B on PyCOMPSs).
    let _ = model;
    let todo = if rng.gen_bool(0.5) {
        "fill in the simulation logic here"
    } else {
        "generate the data and publish it for the consumer"
    };
    if target.uses_python_tasks() {
        let decorator = if target == WorkflowSystemId::PyCompss {
            "from pycompss.api.task import task\n\n\n@task()"
        } else {
            "import parsl\nfrom parsl import python_app\n\n\n@python_app"
        };
        format!(
            "{decorator}\ndef producer(n):\n    # {todo}\n    data = [0.0] * n\n    return data\n\n\nproducer(50)\n"
        )
    } else {
        let header = if target == WorkflowSystemId::Henson {
            "#include <henson/data.h>"
        } else {
            "#include <adios2_c.h>"
        };
        format!(
            "#include <mpi.h>\n{header}\n\nint main(int argc, char** argv)\n{{\n    MPI_Init(&argc, &argv);\n\n    /* {todo} */\n\n    MPI_Finalize();\n    return 0;\n}}\n"
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use wfspeak_metrics::{bleu::BleuScorer, Scorer};
    use wfspeak_systems::system_for;

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    #[test]
    fn tier_boundaries() {
        assert_eq!(tier(0.0), Tier::Exact);
        assert_eq!(tier(0.2), Tier::Minor);
        assert_eq!(tier(0.5), Tier::Moderate);
        assert_eq!(tier(0.7), Tier::Poor);
        assert_eq!(tier(0.9), Tier::Wrong);
    }

    #[test]
    fn exact_config_is_the_reference() {
        let out = degrade_config(WorkflowSystemId::Wilkins, 0.05, ModelId::O3, &mut rng(1));
        assert_eq!(out, configs::WILKINS_3NODE);
    }

    #[test]
    fn bleu_decreases_with_degradation_level_for_configs() {
        let scorer = BleuScorer::default();
        for system in WorkflowSystemId::configuration_systems() {
            let reference = match system {
                WorkflowSystemId::Wilkins => configs::WILKINS_3NODE,
                WorkflowSystemId::Adios2 => configs::ADIOS2_3NODE,
                WorkflowSystemId::Henson => configs::HENSON_3NODE,
                _ => unreachable!(),
            };
            let score_at = |level: f64| {
                let out = degrade_config(system, level, ModelId::Gemini25Pro, &mut rng(7));
                scorer.score(&out, reference)
            };
            let exact = score_at(0.05);
            let moderate = score_at(0.5);
            let wrong = score_at(0.9);
            assert!(exact > moderate, "{system}: {exact} vs {moderate}");
            assert!(moderate > wrong, "{system}: {moderate} vs {wrong}");
            assert!(exact > 99.0);
            assert!(wrong < 30.0, "{system}: wrong tier scored {wrong}");
        }
    }

    #[test]
    fn poor_wilkins_rewrite_has_hallucinated_fields() {
        let out = degrade_config(WorkflowSystemId::Wilkins, 0.7, ModelId::O3, &mut rng(3));
        assert!(out.contains("command:"));
        assert!(out.contains("inputs:"));
        assert!(out.contains("dependencies:"));
        let report = system_for(WorkflowSystemId::Wilkins).validate_config(&out);
        assert!(!report.is_valid());
    }

    #[test]
    fn wrong_tier_config_is_code_not_yaml() {
        let out = degrade_config(WorkflowSystemId::Henson, 0.9, ModelId::O3, &mut rng(4));
        assert!(out.contains("henson_") || out.contains("int main") || out.contains("Task("));
    }

    #[test]
    fn exact_code_is_the_reference() {
        let out = degrade_code(
            WorkflowSystemId::PyCompss,
            None,
            0.05,
            ModelId::Gemini25Pro,
            &mut rng(5),
        );
        assert_eq!(out, annotated::PYCOMPSS_PRODUCER);
    }

    #[test]
    fn bleu_decreases_with_degradation_level_for_code() {
        let scorer = BleuScorer::default();
        for target in [
            WorkflowSystemId::Adios2,
            WorkflowSystemId::Henson,
            WorkflowSystemId::Parsl,
            WorkflowSystemId::PyCompss,
        ] {
            let reference = match target {
                WorkflowSystemId::Adios2 => annotated::ADIOS2_PRODUCER,
                WorkflowSystemId::Henson => annotated::HENSON_PRODUCER,
                WorkflowSystemId::Parsl => annotated::PARSL_PRODUCER,
                WorkflowSystemId::PyCompss => annotated::PYCOMPSS_PRODUCER,
                _ => unreachable!(),
            };
            let score_at = |level: f64| {
                let out = degrade_code(target, None, level, ModelId::O3, &mut rng(11));
                scorer.score(&out, reference)
            };
            assert!(score_at(0.05) > score_at(0.5), "{target}");
            assert!(score_at(0.5) > score_at(0.95), "{target}");
        }
    }

    #[test]
    fn gemini_poor_henson_code_has_table4_hallucinations() {
        let out = degrade_code(
            WorkflowSystemId::Henson,
            Some(WorkflowSystemId::Adios2),
            0.7,
            ModelId::Gemini25Pro,
            &mut rng(2),
        );
        assert!(out.contains("henson_data_init"));
        assert!(out.contains("henson_yield"));
        let report = system_for(WorkflowSystemId::Henson).validate_task_code(&out);
        assert!(report.has_code("hallucinated-call"));
    }

    #[test]
    fn llama_wrong_translation_is_mechanical_rename() {
        let out = degrade_code(
            WorkflowSystemId::Henson,
            Some(WorkflowSystemId::Adios2),
            0.95,
            ModelId::Llama33_70B,
            &mut rng(2),
        );
        // ADIOS2-style call names with a henson_ prefix, as in Table 4 left.
        assert!(out.contains("henson_begin_step"));
        assert!(out.contains("henson_put_var"));
        assert!(out.contains("henson_end_step"));
        assert!(!out.contains("adios2_begin_step"));
        let report = system_for(WorkflowSystemId::Henson).validate_task_code(&out);
        assert!(report.has_code("hallucinated-call"));
    }

    #[test]
    fn moderate_parsl_code_contains_redundant_executor() {
        let mut any_redundant = false;
        for seed in 0..10 {
            let out = degrade_code(
                WorkflowSystemId::Parsl,
                None,
                0.5,
                ModelId::O3,
                &mut rng(seed),
            );
            if out.contains("HighThroughputExecutor") {
                any_redundant = true;
            }
        }
        assert!(
            any_redundant,
            "redundant executor boilerplate should appear at the moderate tier"
        );
    }

    #[test]
    fn llama_moderate_pycompss_often_drops_wait_on_file() {
        let mut dropped = 0;
        for seed in 0..20 {
            let out = degrade_code(
                WorkflowSystemId::PyCompss,
                None,
                0.5,
                ModelId::Llama33_70B,
                &mut rng(seed),
            );
            if !out.contains("compss_wait_on_file") {
                dropped += 1;
            }
        }
        assert!(dropped > 5, "expected frequent omission, got {dropped}/20");
    }

    #[test]
    fn degradation_is_deterministic_for_a_seed() {
        let a = degrade_code(
            WorkflowSystemId::Henson,
            None,
            0.5,
            ModelId::O3,
            &mut rng(9),
        );
        let b = degrade_code(
            WorkflowSystemId::Henson,
            None,
            0.5,
            ModelId::O3,
            &mut rng(9),
        );
        assert_eq!(a, b);
    }

    #[test]
    fn environment_config_sketches_for_python_systems() {
        let parsl = degrade_config(WorkflowSystemId::Parsl, 0.1, ModelId::O3, &mut rng(1));
        assert!(parsl.contains("Config("));
        let pycompss = degrade_config(WorkflowSystemId::PyCompss, 0.1, ModelId::O3, &mut rng(1));
        assert!(pycompss.contains("<Project>"));
    }

    /// The renamer `rename_identifiers` replaced: one pass over the text per
    /// pair, replacing whole-identifier occurrences of `from` with `to`.
    fn rename_identifier(text: &str, from: &str, to: &str) -> String {
        let mut out = String::with_capacity(text.len());
        let bytes = text.as_bytes();
        let is_ident = |b: u8| b.is_ascii_alphanumeric() || b == b'_';
        let mut i = 0;
        while i < bytes.len() {
            if text[i..].starts_with(from) {
                let before_ok = i == 0 || !is_ident(bytes[i - 1]);
                let after = i + from.len();
                let after_ok = after >= bytes.len() || !is_ident(bytes[after]);
                if before_ok && after_ok {
                    out.push_str(to);
                    i = after;
                    continue;
                }
            }
            // Advance one UTF-8 character.
            let ch_len = text[i..].chars().next().map(char::len_utf8).unwrap_or(1);
            out.push_str(&text[i..i + ch_len]);
            i += ch_len;
        }
        out
    }

    #[test]
    fn no_rename_feeds_a_later_one() {
        for table in [PYTHON_RENAMES, C_RENAMES] {
            for (k, (_, to)) in table.iter().enumerate() {
                for (from, _) in &table[k + 1..] {
                    assert_ne!(to, from, "a later pair would rename `{to}` again");
                }
            }
        }
    }

    mod differential {
        use super::*;
        use proptest::prelude::*;

        /// Uniform choice among fixed fragments.
        fn one_of(options: &'static [&'static str]) -> impl Strategy<Value = String> {
            (0..options.len()).prop_map(move |i| options[i].to_owned())
        }

        /// Strings of 1–3 chars drawn from `lo..=hi`.
        fn chars_in(lo: char, hi: char) -> impl Strategy<Value = String> {
            proptest::collection::vec(proptest::char::range(lo, hi), 1..4)
                .prop_map(|chars| chars.into_iter().collect::<String>())
        }

        /// Both tables' words, `from` and `to` alike.
        fn table_word() -> impl Strategy<Value = String> {
            let words: Vec<&'static str> = PYTHON_RENAMES
                .iter()
                .chain(C_RENAMES)
                .flat_map(|&(from, to)| [from, to])
                .collect();
            (0..words.len()).prop_map(move |i| words[i].to_owned())
        }

        /// Identifiers that contain a table word without being one (`total_sum`,
        /// which holds `total` and `sum`, comes from `table_word`).
        const CONTAINING: &[&str] = &[
            "array2", "_t", "t_", "ti", "it", "t_sum", "sum_", "n0", "nn", "my_rank", "sizes",
            "engine_", "_i", "i2", "arrays", "ranks", "delay_t", "t1",
        ];
        const PUNCTUATION: &[&str] = &[
            " ", "\n", "\t", "(", ")", ",", ";", ".", "=", "*", "&", "[", "]", "\"", "#", "/*",
            "*/", "->", "_", "__",
        ];

        /// One piece of text.
        fn fragment() -> impl Strategy<Value = String> {
            prop_oneof![
                table_word(),
                table_word(),
                one_of(CONTAINING),
                one_of(PUNCTUATION),
                one_of(PUNCTUATION),
                "[a-z_]{1,3}|[A-Z][a-z0-9]{0,2}",
                "[0-9]{1,3}",
                chars_in('À', 'ÿ'),
                chars_in('α', 'ω'),
                chars_in('一', '龥'),
                chars_in('𐐀', '𐑏'),
            ]
        }

        fn text() -> impl Strategy<Value = String> {
            proptest::collection::vec(fragment(), 0..40).prop_map(|pieces| pieces.concat())
        }

        proptest! {
            #[test]
            fn one_scan_equals_renaming_pair_by_pair(
                text in text(),
                python in any::<bool>(),
                kept in proptest::collection::vec(any::<bool>(), 10),
            ) {
                let table = if python { PYTHON_RENAMES } else { C_RENAMES };
                let pairs: Vec<(&str, &str)> = table
                    .iter()
                    .zip(&kept)
                    .filter(|(_, &keep)| keep)
                    .map(|(&pair, _)| pair)
                    .collect();
                let expected = pairs
                    .iter()
                    .fold(text.clone(), |acc, (from, to)| rename_identifier(&acc, from, to));
                prop_assert_eq!(rename_identifiers(&text, &pairs), expected);
            }
        }
    }
}
