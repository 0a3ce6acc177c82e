//! Pins the full text of every report `validate_config` gives for a Wilkins
//! or an ADIOS2 configuration: kinds, severities, messages, order and
//! positions.
//!
//! The inputs reach every diagnostic the two readers push: a root of each
//! of the seven YAML value kinds, entries of the wrong kind at every level,
//! unknown and misplaced fields, an escaped double-quoted key, the ADIOS2
//! `Engine` and `Variables` forms, and each kind of YAML error the parser
//! reports.  A change to either reader or to the YAML layer under it that
//! moves one byte of a report fails here with the case's name.  The specs
//! that `workflow_spec_from_config` recovers where a malformed entry leaves
//! no trace in the report are pinned too.

use wfspeak_systems::{
    validate_config, workflow_spec_from_config, TaskSpec, WorkflowSpec, WorkflowSystemId,
};

/// One pinned case: a name, the configuration text and the expected
/// `Display` of the report it yields.
type Case = (&'static str, &'static str, &'static str);

/// YAML inputs shared by both readers: roots of every value kind and one
/// document per YAML error kind the parser reports.
const SHARED: &[(&str, &str)] = &[
    ("root-null", "# only a comment\n"),
    ("root-bool", "true\n"),
    ("root-int", "42\n"),
    ("root-float", "2.5\n"),
    ("root-string", "just some text\n"),
    ("root-sequence", "- a\n- b\n"),
    ("root-mapping", "name: x\n"),
    ("yaml-bad-indentation", "a: 1\n   b: 2\n"),
    ("yaml-trailing-root-content", "- a\nb: 1\n"),
    ("yaml-tab-indent", "tasks:\n\t- func: x\n"),
    ("yaml-expected-mapping", "tasks:\n  - func: p\nloose\n"),
    ("yaml-flow-entry-without-colon", "tasks: {a}\n"),
    ("yaml-unterminated-string", "tasks: \"oops\n"),
    ("yaml-unterminated-flow-string", "tasks: [\"oops]\n"),
    ("yaml-unterminated-flow", "tasks: [1, 2\n"),
    ("yaml-unsupported-anchor", "tasks: &a 1\n"),
    ("yaml-unsupported-key-tag", "!t tasks: 1\n"),
    ("yaml-unsupported-block-scalar", "tasks: |\n  text\n"),
    ("yaml-unsupported-documents", "a: 1\n---\nb: 2\n"),
    ("yaml-duplicate-key", "tasks: 1\ntasks: 2\n"),
    ("yaml-duplicate-flow-key", "m: {a: 1, a: 2}\n"),
    ("yaml-trailing-flow-content", "tasks: [1] x\n"),
    ("yaml-stray-flow-closer", "tasks: [1}, 2]\n"),
];

fn check(cases: &[Case], system: WorkflowSystemId) {
    let mut mismatches = Vec::new();
    for (name, source, expected) in cases {
        let actual = validate_config(system, source).to_string();
        if actual != *expected {
            mismatches.push(format!(
                "{name}:\n  expected {expected:?}\n  actual   {actual:?}"
            ));
        }
    }
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}

fn shared_cases(expected: &[&'static str]) -> Vec<Case> {
    assert_eq!(expected.len(), SHARED.len());
    SHARED
        .iter()
        .zip(expected)
        .map(|(&(name, source), &text)| (name, source, text))
        .collect()
}

#[test]
fn wilkins_reports_match_their_pins() {
    let mut cases = shared_cases(&[
        "error[schema]: expected a mapping with a `tasks` key, found null",
        "error[schema]: expected a mapping with a `tasks` key, found bool",
        "error[schema]: expected a mapping with a `tasks` key, found int",
        "error[schema]: expected a mapping with a `tasks` key, found float",
        "error[schema]: expected a mapping with a `tasks` key, found string",
        "error[schema]: expected a mapping with a `tasks` key, found sequence",
        "error[misplaced-field]: top-level field `name` is not part of a Wilkins configuration\nerror[schema]: missing top-level `tasks` list",
        "error[bad-indentation]: bad indentation: unexpected indent 3 (expected 0) (line 2, column 4)",
        "error[bad-indentation]: bad indentation: unexpected content `b: 1` after document root (line 2, column 1)",
        "error[tab-indent]: tab in indentation: tab character in indentation (indent with spaces) (line 2, column 1)",
        "error[syntax]: expected a `key: value` mapping entry: `loose` is not a `key: value` entry (line 3, column 1)",
        "error[syntax]: expected a `key: value` mapping entry: flow mapping entry missing `:` (line 1, column 9)",
        "error[unterminated-string]: unterminated quoted string: missing closing `\"` (line 1, column 8)",
        "error[unterminated-string]: unterminated quoted string: missing closing `\"` in flow scalar (line 1, column 9)",
        "error[unterminated-flow]: unterminated flow collection: missing `]` (line 1, column 8)",
        "error[unsupported-yaml]: unsupported YAML construct: anchors, aliases and tags are not supported (line 1, column 8)",
        "error[unsupported-yaml]: unsupported YAML construct: anchors, aliases and tags are not supported (line 1, column 1)",
        "error[unsupported-yaml]: unsupported YAML construct: block scalars (`|`, `>`) are not supported (line 1, column 8)",
        "error[unsupported-yaml]: unsupported YAML construct: multiple YAML documents are not supported (line 2, column 1)",
        "error[duplicate-key]: duplicate mapping key: key `tasks` already defined in this mapping (line 2, column 1)",
        "error[duplicate-key]: duplicate mapping key: key `a` already defined in this flow mapping (line 1, column 11)",
        "error[parse-error]: parse error: trailing content ` x` after flow collection (line 1, column 12)",
        "error[parse-error]: parse error: expected `,` or `]` in flow sequence, found `}, 2]` (line 1, column 10)",
    ]);
    cases.extend_from_slice(&[
        (
            "top-level-fields",
            "workflow: w\nfunc: p\n\"work\\\"flow\": 1\ntasks:\n  - func: p\n",
            "error[unknown-field]: top-level field `workflow` is not part of a Wilkins configuration\nerror[misplaced-field]: top-level field `func` is not part of a Wilkins configuration\nerror[unknown-field]: top-level field `work\"flow` is not part of a Wilkins configuration",
        ),
        ("missing-tasks", "version: 1\n", "error[unknown-field]: top-level field `version` is not part of a Wilkins configuration\nerror[schema]: missing top-level `tasks` list"),
        ("tasks-not-a-sequence", "tasks: 3\n", "error[schema]: `tasks` must be a sequence"),
        ("tasks-as-a-mapping", "tasks:\n  func: p\n", "error[schema]: `tasks` must be a sequence"),
        ("tasks-empty", "tasks: []\n", "error[schema]: configuration defines no valid tasks"),
        (
            "task-entries-not-mappings",
            "tasks:\n  - p\n  - 3\n  - [a]\n  -\n  - true\n  - 1.5\n  - func: ok\n",
            "error[schema]: task #0 must be a mapping, found string\nerror[schema]: task #1 must be a mapping, found int\nerror[schema]: task #2 must be a mapping, found sequence\nerror[schema]: task #3 must be a mapping, found null\nerror[schema]: task #4 must be a mapping, found bool\nerror[schema]: task #5 must be a mapping, found float",
        ),
        (
            "task-fields",
            "tasks:\n  - func: p\n    nprocs: 0\n    command: ./p\n    io_freq: 2\n    zerocopy: 1\n    actions: [a]\n    \"com\\\"mand\": x\n  - func: q\n    nprocs: -2\n  - func: r\n    nprocs: two\n  - func: s\n    nprocs: 2.5\n",
            "error[schema]: task #0: `nprocs` must be a positive integer\nerror[unknown-field]: task #0: field `command` does not exist in Wilkins task entries\nerror[unknown-field]: task #0: field `com\"mand` does not exist in Wilkins task entries\nerror[schema]: task #1: `nprocs` must be a positive integer\nerror[schema]: task #2: `nprocs` must be a positive integer\nerror[schema]: task #3: `nprocs` must be a positive integer",
        ),
        ("missing-func", "tasks:\n  - nprocs: 2\n  - func: 3\n", "error[schema]: task #0 is missing the required `func` field\nerror[schema]: task #1: `func` must be a string, found int\nerror[schema]: configuration defines no valid tasks"),
        (
            "ports-not-sequences",
            "tasks:\n  - func: p\n    inports: x\n    outports: {filename: f}\n",
            "error[schema]: task #0: `inports` must be a sequence\nerror[schema]: task #0: `outports` must be a sequence",
        ),
        (
            "port-entries",
            "tasks:\n  - func: p\n    outports:\n      - f.h5\n      - filename: 3\n        func: p\n        path: /x\n        dsets: x\n      - dsets: []\n",
            "error[schema]: task #0: `outports` entries must be mappings\nerror[misplaced-field]: task #0: port field `func` does not belong in `outports`\nerror[unknown-field]: task #0: port field `path` does not belong in `outports`\nerror[schema]: task #0: `dsets` must be a sequence\nwarning[schema]: task #0: `outports` entry's `filename` must be a string, found int\nwarning[schema]: task #0: `outports` entry has no `filename`",
        ),
        (
            "dset-entries",
            "tasks:\n  - func: p\n    inports:\n      - filename: f.h5\n        dsets:\n          - just-a-name\n          - name: /g/a\n            file: 1\n            memory: 0\n            shape: [2]\n          - file: true\n          - name: /g/b\n            file: yes\n            memory: 7\n",
            "error[schema]: task #0: `dsets` entries must be mappings, found string\nerror[unknown-field]: task #0: dset field `shape` does not exist in Wilkins\nerror[schema]: task #0: dset entry missing `name`",
        ),
    ]);
    check(&cases, WorkflowSystemId::Wilkins);
}

#[test]
fn adios2_reports_match_their_pins() {
    let mut cases = shared_cases(&[
        "error[schema]: an ADIOS2 YAML config is a list of IO definitions, found null",
        "error[schema]: an ADIOS2 YAML config is a list of IO definitions, found bool",
        "error[schema]: an ADIOS2 YAML config is a list of IO definitions, found int",
        "error[schema]: an ADIOS2 YAML config is a list of IO definitions, found float",
        "error[schema]: an ADIOS2 YAML config is a list of IO definitions, found string",
        "error[schema]: IO definition #0 must be a mapping\nerror[schema]: IO definition #1 must be a mapping\nerror[schema]: configuration defines no IO entries",
        "error[schema]: an ADIOS2 YAML config is a list of IO definitions, found mapping",
        "error[bad-indentation]: bad indentation: unexpected indent 3 (expected 0) (line 2, column 4)",
        "error[bad-indentation]: bad indentation: unexpected content `b: 1` after document root (line 2, column 1)",
        "error[tab-indent]: tab in indentation: tab character in indentation (indent with spaces) (line 2, column 1)",
        "error[syntax]: expected a `key: value` mapping entry: `loose` is not a `key: value` entry (line 3, column 1)",
        "error[syntax]: expected a `key: value` mapping entry: flow mapping entry missing `:` (line 1, column 9)",
        "error[unterminated-string]: unterminated quoted string: missing closing `\"` (line 1, column 8)",
        "error[unterminated-string]: unterminated quoted string: missing closing `\"` in flow scalar (line 1, column 9)",
        "error[unterminated-flow]: unterminated flow collection: missing `]` (line 1, column 8)",
        "error[unsupported-yaml]: unsupported YAML construct: anchors, aliases and tags are not supported (line 1, column 8)",
        "error[unsupported-yaml]: unsupported YAML construct: anchors, aliases and tags are not supported (line 1, column 1)",
        "error[unsupported-yaml]: unsupported YAML construct: block scalars (`|`, `>`) are not supported (line 1, column 8)",
        "error[unsupported-yaml]: unsupported YAML construct: multiple YAML documents are not supported (line 2, column 1)",
        "error[duplicate-key]: duplicate mapping key: key `tasks` already defined in this mapping (line 2, column 1)",
        "error[duplicate-key]: duplicate mapping key: key `a` already defined in this flow mapping (line 1, column 11)",
        "error[parse-error]: parse error: trailing content ` x` after flow collection (line 1, column 12)",
        "error[parse-error]: parse error: expected `,` or `]` in flow sequence, found `}, 2]` (line 1, column 10)",
    ]);
    cases.extend_from_slice(&[
        ("io-entries-not-mappings", "- x\n- 3\n- [a]\n", "error[schema]: IO definition #0 must be a mapping\nerror[schema]: IO definition #1 must be a mapping\nerror[schema]: IO definition #2 must be a mapping\nerror[schema]: configuration defines no IO entries"),
        (
            "engine-forms",
            "- IO: A\n  Engine:\n    Type: SST\n    QueueLimit: 1\n    Turbo: on\n- IO: B\n  Engine: BP5\n- IO: C\n  Engine: 7\n- IO: D\n  Engine:\n    QueueLimit: 2\n- IO: E\n  Engine:\n    Type: FastStream\n- Engine:\n    Type: SST\n    Mystery: 1\n  IO: F\n- IO: G\n  Engine:\n    Type: 7\n",
            "warning[unknown-parameter]: IO `A`: engine parameter `Turbo` is not a common ADIOS2 parameter\nwarning[schema]: IO `C`: `Engine` must be a string or a mapping, found int; BPFile is assumed\nwarning[schema]: IO `D` does not set an engine type; BPFile is assumed\nerror[unknown-engine]: IO `E` uses engine `FastStream` which ADIOS2 does not provide\nwarning[unknown-parameter]: IO `F`: engine parameter `Mystery` is not a common ADIOS2 parameter\nwarning[schema]: IO `G`: engine `Type` must be a string, found int; BPFile is assumed",
        ),
        (
            "variables-forms",
            "- IO: W\n  Engine: SST\n  Variables:\n    - grid\n    - Variable: particles\n      Shape: [2]\n    - Shape: [3]\n    - 4\n- IO: X\n  Engine: SST\n  Variables: grid\n",
            "error[schema]: IO definition #0: `Variables` entry #2 is neither a name nor a mapping with a `Variable` name\nerror[schema]: IO definition #0: `Variables` entry #3 is neither a name nor a mapping with a `Variable` name\nerror[schema]: IO definition #1: `Variables` must be a sequence, found string",
        ),
        (
            "io-fields",
            "- IO: A\n  Engine: SST\n  Transports: []\n  Parameters: {}\n  Tasks:\n    - producer\n  \"Eng\\\"ine\": SST\n",
            "error[unknown-field]: IO definition #0: field `Tasks` does not exist in ADIOS2 configs\nerror[unknown-field]: IO definition #0: field `Eng\"ine` does not exist in ADIOS2 configs",
        ),
        ("missing-io-name", "- Engine: SST\n- IO: 3\n  Engine: SST\n- IO: B\n", "error[schema]: IO definition #0 is missing the `IO` name\nerror[schema]: IO definition #1: `IO` must be a string, found int\nwarning[schema]: IO `B` does not set an engine type; BPFile is assumed"),
        ("empty-list", "[]\n", "error[schema]: configuration defines no IO entries"),
    ]);
    check(&cases, WorkflowSystemId::Adios2);
}

#[test]
fn parsed_values_behind_the_quiet_cases_are_pinned_too() {
    // Malformed ADIOS2 `Variables` entries are dropped after their
    // diagnostic, and Wilkins dset flags are accepted whatever their value;
    // the spec each input yields is pinned here.
    let (spec, _) = workflow_spec_from_config(
        WorkflowSystemId::Adios2,
        "- IO: W\n  Engine: SST\n  Variables:\n    - grid\n    - Variable: particles\n      Shape: [2]\n    - Shape: [3]\n    - 4\n- IO: X\n  Engine: {Type: BP5}\n  Variables: grid\n",
    );
    assert_eq!(
        spec,
        Some(
            WorkflowSpec::new("adios2-workflow")
                .with_task(
                    TaskSpec::new("producer", 1)
                        .produces("grid")
                        .produces("particles")
                )
                .with_task(TaskSpec::new("consumer1", 1).consumes("x"))
        )
    );

    let (spec, _) = workflow_spec_from_config(
        WorkflowSystemId::Wilkins,
        "tasks:\n  - func: p\n    nprocs: 3\n    inports:\n      - filename: f.h5\n        dsets:\n          - just-a-name\n          - name: /g/a\n            file: 1\n            memory: 0\n          - name: /g/b\n            file: yes\n            memory: 7\n          - name: /g/c\n            file: true\n            memory: false\n",
    );
    assert_eq!(
        spec,
        Some(
            WorkflowSpec::new("wilkins-workflow").with_task(
                TaskSpec::new("p", 3)
                    .consumes("a")
                    .consumes("b")
                    .consumes("c")
            )
        )
    );
}
