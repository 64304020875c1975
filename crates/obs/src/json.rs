//! A minimal, deterministic JSON writer.
//!
//! Only what the snapshot schema needs: objects with string keys,
//! arrays, `u64` numbers and strings. Output is pretty-printed with
//! two-space indentation so golden-fixture diffs stay readable, and key
//! order is exactly the order the caller writes — the registry feeds it
//! from `BTreeMap`s, so equal registries produce byte-equal JSON.

/// Escapes `s` for use inside a JSON string literal.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
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
    out
}

/// Incremental pretty-printer. The caller is responsible for balanced
/// `open`/`close` calls; commas and indentation are handled here.
pub(crate) struct Writer {
    buf: String,
    indent: usize,
    need_comma: Vec<bool>,
}

impl Writer {
    /// A writer positioned at the start of a document.
    pub(crate) fn new() -> Self {
        Self {
            buf: String::new(),
            indent: 0,
            need_comma: vec![false],
        }
    }

    fn pre_item(&mut self) {
        if let Some(last) = self.need_comma.last_mut() {
            if *last {
                self.buf.push(',');
            }
            *last = true;
        }
        if self.indent > 0 {
            self.buf.push('\n');
            self.buf.push_str(&"  ".repeat(self.indent));
        }
    }

    fn open(&mut self, key: Option<&str>, delim: char) {
        self.pre_item();
        if let Some(k) = key {
            self.buf.push('"');
            self.buf.push_str(&escape(k));
            self.buf.push_str("\": ");
        }
        self.buf.push(delim);
        self.indent += 1;
        self.need_comma.push(false);
    }

    fn close(&mut self, delim: char) {
        let had_items = self.need_comma.pop().unwrap_or(false);
        self.indent -= 1;
        if had_items {
            self.buf.push('\n');
            self.buf.push_str(&"  ".repeat(self.indent));
        }
        self.buf.push(delim);
    }

    /// Opens an object, optionally as the value of `key`.
    pub(crate) fn open_object(&mut self, key: Option<&str>) {
        self.open(key, '{');
    }

    /// Closes the innermost object.
    pub(crate) fn close_object(&mut self) {
        self.close('}');
    }

    /// Opens an array, optionally as the value of `key`.
    pub(crate) fn open_array(&mut self, key: Option<&str>) {
        self.open(key, '[');
    }

    /// Closes the innermost array.
    pub(crate) fn close_array(&mut self) {
        self.close(']');
    }

    /// Writes `"key": value`.
    pub(crate) fn field_u64(&mut self, key: &str, value: u64) {
        self.pre_item();
        self.buf
            .push_str(&format!("\"{}\": {}", escape(key), value));
    }

    /// Writes `"key": "value"`.
    pub(crate) fn field_str(&mut self, key: &str, value: &str) {
        self.pre_item();
        self.buf
            .push_str(&format!("\"{}\": \"{}\"", escape(key), escape(value)));
    }

    /// Writes a bare `[a, b]` pair as an array element.
    pub(crate) fn pair_u64(&mut self, a: u64, b: u64) {
        self.pre_item();
        self.buf.push_str(&format!("[{a}, {b}]"));
    }

    /// Finishes the document (appends a trailing newline).
    pub fn finish(mut self) -> String {
        self.buf.push('\n');
        self.buf
    }
}

impl Default for Writer {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_specials() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn nested_document_shape() {
        let mut w = Writer::new();
        w.open_object(None);
        w.field_u64("n", 3);
        w.open_object(Some("inner"));
        w.field_str("s", "x");
        w.close_object();
        w.open_array(Some("pairs"));
        w.pair_u64(1, 2);
        w.pair_u64(3, 4);
        w.close_array();
        w.open_array(Some("empty"));
        w.close_array();
        w.close_object();
        let got = w.finish();
        let want = "{\n  \"n\": 3,\n  \"inner\": {\n    \"s\": \"x\"\n  },\n  \"pairs\": [\n    [1, 2],\n    [3, 4]\n  ],\n  \"empty\": []\n}\n";
        assert_eq!(got, want);
    }
}
