//! A hand-rolled JSON writer: the vendored serde shim's derives are
//! no-ops, so the benchmark formats its own output.

/// A JSON value.  Objects keep insertion order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Int(u64),
    /// Rendered with every digit (`f64`'s shortest round-trip form);
    /// NaN and ±∞ have no JSON form and render as `null`.
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
    /// Text that is already JSON (a child process's own output), embedded
    /// as it stands.
    Raw(String),
}

impl Json {
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// `Num`, or `Null` for an absent value.
    pub fn opt_num(v: Option<f64>) -> Json {
        v.map_or(Json::Null, Json::Num)
    }

    pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Compact single-line rendering (the benchmark's last stdout line).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Indented rendering for the files people read.
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        let newline = |out: &mut String, depth: usize| {
            if let Some(width) = indent {
                out.push('\n');
                out.extend(std::iter::repeat_n(' ', width * depth));
            }
        };
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => out.push_str(&i.to_string()),
            Json::Num(x) if x.is_finite() => out.push_str(&x.to_string()),
            Json::Num(_) => out.push_str("null"),
            Json::Str(s) => write_escaped(out, s),
            Json::Raw(text) => out.push_str(text),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, depth + 1);
                    item.write(out, indent, depth + 1);
                }
                if !items.is_empty() {
                    newline(out, depth);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, depth + 1);
                    write_escaped(out, key);
                    out.push_str(": ");
                    value.write(out, indent, depth + 1);
                }
                if !fields.is_empty() {
                    newline(out, depth);
                }
                out.push('}');
            }
        }
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_quotes_backslashes_and_control_characters() {
        let v = Json::str("a\"b\\c\nd\te\u{1}");
        assert_eq!(v.render(), r#""a\"b\\c\nd\te\u0001""#);
    }

    #[test]
    fn absent_and_non_finite_numbers_render_as_null() {
        let v = Json::obj([
            ("rss", Json::opt_num(None)),
            ("nan", Json::Num(f64::NAN)),
            ("x", Json::opt_num(Some(1.5))),
        ]);
        assert_eq!(v.render(), r#"{"rss": null,"nan": null,"x": 1.5}"#);
    }

    #[test]
    fn numbers_keep_every_digit_and_never_use_an_exponent() {
        assert_eq!(Json::Num(0.000012034).render(), "0.000012034");
        assert_eq!(Json::Num(145000.25).render(), "145000.25");
        assert_eq!(Json::Int(u64::MAX).render(), u64::MAX.to_string());
    }

    #[test]
    fn pretty_rendering_nests_and_handles_empty_containers() {
        let v = Json::obj([
            ("a", Json::Arr(vec![Json::Int(1), Json::Bool(true)])),
            ("e", Json::Arr(vec![])),
        ]);
        assert_eq!(
            v.render_pretty(),
            "{\n  \"a\": [\n    1,\n    true\n  ],\n  \"e\": []\n}\n"
        );
    }
}
