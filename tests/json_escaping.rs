//! The two JSON string escapers agree.
//!
//! Query and `PREPARE` names arrive from clients and leave through two
//! encoders: `qob_obs`'s event lines (the structured event log) and
//! `qob_server::json` (wire responses).  They stay two functions because
//! `qob-obs` is dependency-free and `qob-server` does not depend on it; this
//! suite pins them to one encoding, control characters included.

use qob_obs::Event;
use qob_server::Json;

/// Names a hostile client could send: every escape the encoders special-
/// case, every other C0 control, DEL, and multi-byte UTF-8.
fn hostile_names() -> Vec<String> {
    let mut names: Vec<String> = (0u8..0x20).map(|b| char::from(b).to_string()).collect();
    names.extend(
        [
            "\"",
            "\\",
            "\u{7f}",
            "é",
            "名前",
            "🦀",
            "a\"b\\c\nd\re\tf\u{1}g\u{1f}",
            "\\u0041",
            "{},:[]",
        ]
        .map(String::from),
    );
    names
}

#[test]
fn event_lines_and_wire_json_encode_names_identically() {
    for name in hostile_names() {
        let line = Event::new("probe").str("query", &name).finish();
        let parsed = Json::parse(&line).unwrap_or_else(|e| panic!("{name:?}: {e} in {line}"));
        assert_eq!(parsed.get("query").and_then(Json::as_str), Some(name.as_str()), "{line}");

        let encoded = line
            .strip_prefix("{\"event\":\"probe\",\"query\":")
            .and_then(|rest| rest.strip_suffix('}'))
            .unwrap_or_else(|| panic!("unexpected event shape: {line}"));
        assert_eq!(Json::str(name.clone()).to_string(), encoded, "{name:?}");
    }
}
