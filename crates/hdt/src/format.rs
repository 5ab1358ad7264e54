//! The three document formats as one value: which parser reads a document.

use crate::{Hdt, Result};

/// The source format of a document.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DocFormat {
    /// XML via [`crate::xml::xml_to_hdt`].
    Xml,
    /// JSON via [`crate::json::json_to_hdt`].
    Json,
    /// HTML via [`crate::html::html_to_hdt`].
    Html,
}

impl DocFormat {
    /// Parses one document into an HDT.
    pub fn parse(self, text: &str) -> Result<Hdt> {
        match self {
            DocFormat::Xml => crate::xml::xml_to_hdt(text),
            DocFormat::Json => crate::json::json_to_hdt(text),
            DocFormat::Html => crate::html::html_to_hdt(text),
        }
    }

    /// Stable lowercase label used in journals.
    pub fn label(self) -> &'static str {
        match self {
            DocFormat::Xml => "xml",
            DocFormat::Json => "json",
            DocFormat::Html => "html",
        }
    }

    /// Inverse of [`DocFormat::label`], case-insensitive; `htm` also names
    /// HTML.
    pub fn from_label(label: &str) -> Option<DocFormat> {
        match label.to_ascii_lowercase().as_str() {
            "xml" => Some(DocFormat::Xml),
            "json" => Some(DocFormat::Json),
            "html" | "htm" => Some(DocFormat::Html),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_round_trip_case_insensitively_and_formats_parse() {
        for f in [DocFormat::Xml, DocFormat::Json, DocFormat::Html] {
            assert_eq!(DocFormat::from_label(f.label()), Some(f));
            assert_eq!(DocFormat::from_label(&f.label().to_uppercase()), Some(f));
        }
        assert_eq!(DocFormat::from_label("Htm"), Some(DocFormat::Html));
        assert_eq!(DocFormat::from_label("yaml"), None);
        assert!(DocFormat::Xml.parse("<a>1</a>").is_ok());
        assert!(DocFormat::Xml.parse("<a>1").is_err());
        assert!(DocFormat::Json.parse("{\"a\": 1}").is_ok());
        assert!(DocFormat::Json.parse("{broken").is_err());
        assert!(DocFormat::Html.parse("<p>x</p>").is_ok());
    }
}
