//! Behavioural check beyond the paper: actually execute the 3-node workflow
//! described by the reference Wilkins configuration on the in situ runtime,
//! then show that a hallucinated (zero-shot style) configuration never
//! reaches it.  Two runs print the same bytes.
//!
//! Run with: `cargo run --example run_workflow`

use wfspeak_corpus::references::configs::WILKINS_3NODE;
use wfspeak_corpus::WorkflowSystemId;
use wfspeak_runtime::{Engine, EngineConfig};
use wfspeak_systems::workflow_spec_from_config;

fn main() {
    let engine = Engine::new(EngineConfig::default());

    println!("Executing the reference 3-node Wilkins workflow on the in situ runtime...\n");
    let (spec, report) = workflow_spec_from_config(WorkflowSystemId::Wilkins, WILKINS_3NODE);
    assert!(report.is_valid(), "reference configuration: {report}");
    let outcome = engine
        .run(&spec.expect("a valid configuration yields a spec"))
        .expect("the reference workflow passes validation");

    println!("completed: {}", outcome.completed);
    println!("timesteps: {}", outcome.timesteps);
    println!(
        "messages received by consumers: {}",
        outcome.total_received()
    );
    for (task, sums) in &outcome.consumer_sums {
        println!("  {task}: per-step dataset sums {sums:?}");
    }
    println!("\nexecution trace:\n{}", outcome.trace.render());

    // A configuration with hallucinated fields (the zero-shot o3 style of
    // Table 6, right) is rejected before execution.
    let hallucinated = "workflow:\n  tasks:\n    - func: producer\n      command: ./producer\n      processes: 3\n";
    match workflow_spec_from_config(WorkflowSystemId::Wilkins, hallucinated) {
        (Some(_), report) if report.is_valid() => {
            println!("unexpected: hallucinated configuration is valid")
        }
        (_, report) => println!("hallucinated configuration rejected as expected:\n{report}"),
    }
}
