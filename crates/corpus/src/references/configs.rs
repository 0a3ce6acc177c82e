//! Reference workflow configuration files.
//!
//! The 3-node workflow is the one described in the paper's sample prompt:
//! one producer generating `grid` and `particles` datasets on 3 processes,
//! `consumer1` reading `grid` on 1 process and `consumer2` reading
//! `particles` on 1 process.

/// Wilkins configuration for the 3-node workflow — the ground truth shown in
/// Table 6 (left) of the paper.
pub const WILKINS_3NODE: &str = r#"tasks:
  - func: producer
    nprocs: 3
    outports:
      - filename: outfile.h5
        dsets:
          - name: /group1/grid
            file: 0
            memory: 1
          - name: /group1/particles
            file: 0
            memory: 1
  - func: consumer1
    nprocs: 1
    inports:
      - filename: outfile.h5
        dsets:
          - name: /group1/grid
            file: 0
            memory: 1
  - func: consumer2
    nprocs: 1
    inports:
      - filename: outfile.h5
        dsets:
          - name: /group1/particles
            file: 0
            memory: 1
"#;

/// Wilkins configuration for a simple 2-node workflow (one producer, one
/// consumer, single dataset) — the exemplar added to the prompt in the
/// few-shot experiment.
pub const WILKINS_2NODE: &str = r#"tasks:
  - func: producer
    nprocs: 1
    outports:
      - filename: outfile.h5
        dsets:
          - name: /group1/particles
            file: 0
            memory: 1
  - func: consumer
    nprocs: 1
    inports:
      - filename: outfile.h5
        dsets:
          - name: /group1/particles
            file: 0
            memory: 1
"#;

/// ADIOS2 YAML runtime configuration for the 3-node workflow: one IO per
/// data stream, SST engine for in situ (memory) exchange.
pub const ADIOS2_3NODE: &str = r#"---
- IO: GridStream
  Engine:
    Type: SST
    RendezvousReaderCount: 1
    QueueLimit: 1
  Variables:
    - Variable: grid
      Shape: [64, 64]
      Type: float
- IO: ParticlesStream
  Engine:
    Type: SST
    RendezvousReaderCount: 1
    QueueLimit: 1
  Variables:
    - Variable: particles
      Shape: [1024, 3]
      Type: float
- IO: GridReader
  Engine:
    Type: SST
- IO: ParticlesReader
  Engine:
    Type: SST
"#;

/// ADIOS2 YAML runtime configuration for the 2-node few-shot exemplar.
pub const ADIOS2_2NODE: &str = r#"---
- IO: ParticlesStream
  Engine:
    Type: SST
    RendezvousReaderCount: 1
  Variables:
    - Variable: particles
      Shape: [1024, 3]
      Type: float
- IO: ParticlesReader
  Engine:
    Type: SST
"#;

/// Henson script for the 3-node workflow: one puppet per task plus process
/// group assignments.
pub const HENSON_3NODE: &str = r#"producer   = ./producer.so 50 3
consumer1  = ./consumer_grid.so
consumer2  = ./consumer_particles.so

[3] producer
[1] consumer1
[1] consumer2
"#;

/// Henson script for the 2-node few-shot exemplar.
pub const HENSON_2NODE: &str = r#"producer  = ./producer.so 50 3
consumer  = ./consumer.so

[1] producer
[1] consumer
"#;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wilkins_3node_matches_paper_structure() {
        assert!(WILKINS_3NODE.contains("func: producer"));
        assert!(WILKINS_3NODE.contains("nprocs: 3"));
        assert!(WILKINS_3NODE.contains("func: consumer1"));
        assert!(WILKINS_3NODE.contains("func: consumer2"));
        assert!(WILKINS_3NODE.contains("inports:"));
        assert!(WILKINS_3NODE.contains("outports:"));
        assert!(WILKINS_3NODE.contains("/group1/grid"));
        assert!(WILKINS_3NODE.contains("/group1/particles"));
        // The fields o3 hallucinated in zero-shot mode must not be present.
        assert!(!WILKINS_3NODE.contains("inputs:"));
        assert!(!WILKINS_3NODE.contains("outputs:"));
        assert!(!WILKINS_3NODE.contains("command:"));
        assert!(!WILKINS_3NODE.contains("dependencies:"));
    }

    #[test]
    fn wilkins_configs_parse_as_yaml() {
        for (name, src) in [("3node", WILKINS_3NODE), ("2node", WILKINS_2NODE)] {
            let doc = wfspeak_wyaml::parse_document(src).unwrap_or_else(|e| panic!("{name}: {e}"));
            let tasks = doc.get("tasks").unwrap().as_seq().unwrap();
            assert!(!tasks.is_empty());
        }
    }

    #[test]
    fn wilkins_3node_has_three_tasks_and_2node_has_two() {
        let doc3 = wfspeak_wyaml::parse_document(WILKINS_3NODE).unwrap();
        assert_eq!(doc3.get("tasks").unwrap().as_seq().unwrap().len(), 3);
        let doc2 = wfspeak_wyaml::parse_document(WILKINS_2NODE).unwrap();
        assert_eq!(doc2.get("tasks").unwrap().as_seq().unwrap().len(), 2);
    }

    #[test]
    fn adios2_configs_parse_as_yaml_io_list() {
        for src in [ADIOS2_3NODE, ADIOS2_2NODE] {
            let doc = wfspeak_wyaml::parse_document(src).unwrap();
            let ios = doc.as_seq().unwrap();
            assert!(ios.len() >= 2);
            for io in ios {
                assert!(io.get("IO").is_some());
                assert!(io.get("Engine").is_some());
            }
        }
    }

    #[test]
    fn adios2_3node_uses_sst_engine() {
        let doc = wfspeak_wyaml::parse_document(ADIOS2_3NODE).unwrap();
        let first = &doc.as_seq().unwrap()[0];
        assert_eq!(
            first.get("Engine").unwrap().get("Type").unwrap().as_str(),
            Some("SST")
        );
    }

    #[test]
    fn henson_scripts_have_puppets_and_groups() {
        for src in [HENSON_3NODE, HENSON_2NODE] {
            assert!(src.contains(".so"));
            assert!(src.contains("= ./"));
            assert!(src.lines().any(|l| l.trim_start().starts_with('[')));
        }
        assert!(HENSON_3NODE.contains("[3] producer"));
    }
}
