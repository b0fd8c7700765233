//! A JSON value and its writer: enough for `results.json`, the Chrome traces
//! and the one-line result the driver reads.

use std::fmt::Write;

#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    /// Keys keep insertion order, so files diff cleanly between runs.
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Compact, single-line rendering.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(x) => write_num(*x, out),
            Json::Str(s) => write_str(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_str(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// Whole numbers print without a fraction (`attempted`, counts); everything
/// else prints with all its digits. JSON has no NaN or infinity: they become
/// `null`, which a reader rejects instead of mistaking for a measurement.
fn write_num(x: f64, out: &mut String) {
    if !x.is_finite() {
        out.push_str("null");
    } else if x.fract() == 0.0 && x.abs() < 9.0e15 {
        write!(out, "{}", x as i64).expect("writing to a String cannot fail");
    } else {
        write!(out, "{x}").expect("writing to a String cannot fail");
    }
}

fn write_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                write!(out, "\\u{:04x}", c as u32).expect("writing to a String cannot fail")
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_nested_values_in_insertion_order() {
        let v = Json::obj([
            ("correct", Json::Bool(true)),
            ("attempted", Json::Num(16.0)),
            (
                "metrics",
                Json::obj([(
                    "e2e_s",
                    Json::obj([("value", Json::Num(0.3312)), ("unit", Json::str("s"))]),
                )]),
            ),
            ("list", Json::Arr(vec![Json::Num(1.5), Json::Num(-2.0)])),
        ]);
        assert_eq!(
            v.render(),
            r#"{"correct":true,"attempted":16,"metrics":{"e2e_s":{"value":0.3312,"unit":"s"}},"list":[1.5,-2]}"#
        );
    }

    #[test]
    fn escapes_strings_and_refuses_non_finite_numbers() {
        assert_eq!(
            Json::str("a\"b\\c\nd\te\u{1}").render(),
            r#""a\"b\\c\nd\te\u0001""#
        );
        assert_eq!(
            Json::str("Intel(R) Xeon(R) — 2.10GHz").render(),
            "\"Intel(R) Xeon(R) — 2.10GHz\""
        );
        assert_eq!(Json::Num(f64::NAN).render(), "null");
        assert_eq!(Json::Num(f64::INFINITY).render(), "null");
        assert_eq!(
            Json::Num(0.1 + 0.2).render(),
            "0.30000000000000004",
            "all digits kept"
        );
    }
}
