//! `wfspeak-codemodel` — lightweight source-code models for the benchmark.
//!
//! The annotation and translation experiments operate on small C and Python
//! task codes.  To build reference artifacts, validate LLM output against a
//! workflow system's API surface, and analyse the kinds of errors models
//! make (nonexistent API calls, missing required calls, redundant
//! boilerplate), the harness needs a structural view of those programs that
//! is cheaper and more robust than full parsing:
//!
//! * [`lexer`] — the crate's one tokenizer, [`Lexer`]: a zero-copy byte
//!   scanner whose [`Token`]s borrow their text from the source,
//! * [`calls`] — function-call, decorator, include and import extraction,
//!   streamed from the lexer with a look-behind of a few tokens,
//! * [`extract`] — pulling code out of LLM responses (markdown fences,
//!   leading prose),
//! * [`compare`] — API-call level comparison of a hypothesis against a
//!   reference (missing / extra / hallucinated calls). It runs for every
//!   evaluated response, next to BLEU and ChrF, and copies only the names
//!   it returns.
//!
//! # Example
//!
//! ```
//! use wfspeak_codemodel::{calls::extract_calls, lexer::Language};
//!
//! let code = "henson_save_int(\"t\", t);\nhenson_yield();";
//! let calls = extract_calls(code, Language::C);
//! let names: Vec<&str> = calls.iter().map(|c| c.name.as_str()).collect();
//! assert_eq!(names, vec!["henson_save_int", "henson_yield"]);
//! ```

pub mod calls;
pub mod compare;
pub mod extract;
pub mod lexer;

pub use calls::{extract_calls, extract_decorators, extract_imports, Call, Decorator};
pub use compare::{compare_calls, CallComparison};
pub use extract::{extract_code, strip_markdown_fences};
pub use lexer::{tokenize, Language, Lexer, Token, TokenKind};
