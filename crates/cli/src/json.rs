//! Minimal dependency-free JSON emission for `scanbist --json`.

use std::fmt::Write as _;

use scan_obs::json::escape;

/// An ordered JSON object builder producing a single-line object.
///
/// # Examples
///
/// ```
/// use scan_bist_cli::json::JsonObject;
///
/// let mut o = JsonObject::new();
/// o.string("circuit", "s953");
/// o.number("dr", 0.075);
/// o.bool("pruned", true);
/// assert_eq!(o.finish(), r#"{"circuit":"s953","dr":0.075,"pruned":true}"#);
/// ```
#[derive(Default, Debug)]
pub struct JsonObject {
    body: String,
}

impl JsonObject {
    /// An empty object.
    #[must_use]
    pub fn new() -> Self {
        JsonObject::default()
    }

    fn sep(&mut self) {
        if !self.body.is_empty() {
            self.body.push(',');
        }
    }

    /// Adds a string field (escaped).
    pub fn string(&mut self, key: &str, value: &str) -> &mut Self {
        self.sep();
        let _ = write!(self.body, "{}:{}", escape(key), escape(value));
        self
    }

    /// Adds a numeric field. Non-finite values are emitted as `null`.
    pub fn number(&mut self, key: &str, value: f64) -> &mut Self {
        self.sep();
        if value.is_finite() {
            // Trim float formatting: integers print without a fraction.
            if (value.fract() == 0.0) && value.abs() < 1e15 {
                // Guarded by the magnitude check above, so the cast is
                // exact.
                #[allow(clippy::cast_possible_truncation)]
                let int = value as i64;
                let _ = write!(self.body, "{}:{}", escape(key), int);
            } else {
                let _ = write!(self.body, "{}:{}", escape(key), value);
            }
        } else {
            let _ = write!(self.body, "{}:null", escape(key));
        }
        self
    }

    /// Adds a boolean field.
    pub fn bool(&mut self, key: &str, value: bool) -> &mut Self {
        self.sep();
        let _ = write!(self.body, "{}:{}", escape(key), value);
        self
    }

    /// Adds an array of numbers.
    pub fn numbers(&mut self, key: &str, values: &[f64]) -> &mut Self {
        self.sep();
        let items: Vec<String> = values
            .iter()
            .map(|v| {
                if v.is_finite() {
                    v.to_string()
                } else {
                    "null".to_owned()
                }
            })
            .collect();
        let _ = write!(self.body, "{}:[{}]", escape(key), items.join(","));
        self
    }

    /// Closes and returns the object text.
    #[must_use]
    pub fn finish(&self) -> String {
        format!("{{{}}}", self.body)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numbers_format_cleanly() {
        let mut o = JsonObject::new();
        o.number("int", 42.0)
            .number("float", 0.125)
            .number("nan", f64::NAN);
        assert_eq!(o.finish(), r#"{"int":42,"float":0.125,"nan":null}"#);
    }

    #[test]
    fn arrays_and_bools() {
        let mut o = JsonObject::new();
        o.numbers("xs", &[1.0, 2.5]).bool("ok", false);
        assert_eq!(o.finish(), r#"{"xs":[1,2.5],"ok":false}"#);
    }

    #[test]
    fn empty_object() {
        assert_eq!(JsonObject::new().finish(), "{}");
    }
}
