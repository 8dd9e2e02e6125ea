//! The JSP layer: renders [`TradeResult`]s to HTML.
//!
//! Response sizes matter: in the Clients/RAS architecture the whole page
//! crosses the high-latency path, which is what makes that architecture
//! transmit "more than 7000 bytes to the back-end server" per interaction
//! (Figure 8). The boilerplate below (masthead, navigation, styles, footer)
//! mirrors the weight of Trade2's real JSP output.
//!
//! All of that chrome but the title is the same on every page, so it is
//! built once per process (`HEAD_TAIL`, `FOOT`); a request copies it
//! and writes only its own title, fields and rows.

use std::fmt::Write as _;
use std::sync::LazyLock;

use crate::action::TradeResult;

/// The page up to the title text.
const HEAD_LEAD: &str = "<!DOCTYPE HTML PUBLIC \"-//W3C//DTD HTML 4.01 Transitional//EN\">\n\
                         <html>\n<head>\n<title>Trade: ";

/// From the end of the title to the end of the navigation bar.
static HEAD_TAIL: LazyLock<String> = LazyLock::new(head_tail);

/// Sidebar, market summary and footer: everything after a page's content.
static FOOT: LazyLock<String> = LazyLock::new(foot);

/// Shared page chrome after the title: inline styles, masthead and
/// navigation bar.
fn head_tail() -> String {
    let mut s = String::with_capacity(4096);
    s.push_str("</title>\n");
    s.push_str("<meta http-equiv=\"Content-Type\" content=\"text/html; charset=iso-8859-1\">\n");
    s.push_str("<style type=\"text/css\">\n");
    s.push_str(
        "body { font-family: Times New Roman, serif; background-color: #ffffff; margin: 0; }\n\
         .masthead { background-color: #025286; color: #ffffff; font-size: 22px; padding: 10px 18px; }\n\
         .navbar { background-color: #cccccc; padding: 6px 18px; font-size: 13px; }\n\
         .navbar a { color: #025286; margin-right: 14px; text-decoration: none; font-weight: bold; }\n\
         .content { padding: 16px 22px; font-size: 14px; }\n\
         table.data { border-collapse: collapse; margin-top: 10px; }\n\
         table.data th { background-color: #025286; color: #ffffff; padding: 4px 10px; }\n\
         table.data td { border: 1px solid #999999; padding: 4px 10px; }\n\
         .field-name { font-weight: bold; color: #333333; padding-right: 12px; }\n\
         .footer { background-color: #eeeeee; color: #555555; font-size: 11px; padding: 8px 18px; }\n",
    );
    s.push_str(
        "h1 { font-size: 20px; color: #025286; border-bottom: 2px solid #025286; padding-bottom: 4px; }\n\
         .quote-up { color: #007700; font-weight: bold; }\n\
         .quote-down { color: #aa0000; font-weight: bold; }\n\
         .sidebar { float: right; width: 260px; background-color: #f4f4f4; border: 1px solid #cccccc; \
         margin: 10px; padding: 8px; font-size: 12px; }\n\
         .sidebar h2 { font-size: 14px; color: #025286; margin: 2px 0 6px 0; }\n\
         .ticker { background-color: #000033; color: #00ff66; font-family: monospace; \
         padding: 3px 18px; font-size: 12px; white-space: nowrap; overflow: hidden; }\n\
         form.quoteform { margin: 8px 0; }\n\
         form.quoteform input { border: 1px solid #025286; font-size: 12px; }\n\
         .disclaimer { font-size: 10px; color: #777777; margin-top: 6px; }\n",
    );
    s.push_str("</style>\n</head>\n<body>\n");
    // Scrolling ticker strip — present on every Trade2 page.
    s.push_str(
        "<div class=\"ticker\">s:0 10.00 &nbsp; s:1 11.00 +0.12 &nbsp; s:2 12.00 -0.08 &nbsp; \
         s:3 13.00 +0.31 &nbsp; s:4 14.00 -0.02 &nbsp; s:5 15.00 +0.19 &nbsp; s:6 16.00 +0.07 \
         &nbsp; s:7 17.00 -0.14 &nbsp; s:8 18.00 +0.22 &nbsp; s:9 19.00 -0.05 &nbsp; \
         s:10 20.00 +0.09 &nbsp; s:11 21.00 +0.41 &nbsp; s:12 22.00 -0.17 &nbsp; \
         s:13 23.00 +0.03 &nbsp; s:14 24.00 +0.11 &nbsp; TSIA 100.32 +0.40</div>\n",
    );
    s.push_str(
        "<div class=\"masthead\">Trade &mdash; an online brokerage \
         <span style=\"font-size:12px\">(sli-edge reproduction of IBM Trade2 v2.531)</span></div>\n",
    );
    s.push_str("<div class=\"navbar\">\n");
    for (label, action) in [
        ("Home", "home"),
        ("Account", "account"),
        ("Portfolio", "portfolio"),
        ("Quotes", "quote"),
        ("Buy", "buy"),
        ("Sell", "sell"),
        ("Logoff", "logout"),
    ] {
        s.push_str(&format!(
            "<a href=\"/trade/app?action={action}\">{label}</a>\n"
        ));
    }
    s.push_str("</div>\n");
    s
}

/// Starts a page: the chrome head around `title`, in a buffer with room
/// for `body` more bytes and the foot, so rendering allocates once.
fn page_head(title: &str, body: usize) -> String {
    let mut s =
        String::with_capacity(HEAD_LEAD.len() + title.len() + HEAD_TAIL.len() + body + FOOT.len());
    s.push_str(HEAD_LEAD);
    s.push_str(title);
    s.push_str(&HEAD_TAIL);
    s
}

/// Static market-summary sidebar included on every page, as Trade2's JSPs
/// include their `marketSummary.jsp` fragment.
fn market_summary_fragment() -> String {
    let mut s = String::with_capacity(2048);
    s.push_str("<div class=\"content\">\n<table class=\"data\" summary=\"market summary\">\n");
    s.push_str("<tr><th colspan=\"4\">Trade Stock Index Average (TSIA) &mdash; session snapshot</th></tr>\n");
    s.push_str("<tr><th>gainer</th><th>price</th><th>loser</th><th>price</th></tr>\n");
    for (g, gp, l, lp) in [
        (
            "s:12 Company #12 Incorporated",
            "44.10 (+2.3%)",
            "s:31 Company #31 Incorporated",
            "18.75 (-3.1%)",
        ),
        (
            "s:57 Company #57 Incorporated",
            "67.25 (+1.9%)",
            "s:88 Company #88 Incorporated",
            "12.40 (-2.6%)",
        ),
        (
            "s:03 Company #03 Incorporated",
            "13.05 (+1.4%)",
            "s:64 Company #64 Incorporated",
            "74.90 (-1.8%)",
        ),
        (
            "s:45 Company #45 Incorporated",
            "55.60 (+1.1%)",
            "s:09 Company #09 Incorporated",
            "19.10 (-1.2%)",
        ),
        (
            "s:71 Company #71 Incorporated",
            "81.35 (+0.8%)",
            "s:26 Company #26 Incorporated",
            "36.55 (-0.9%)",
        ),
    ] {
        s.push_str(&format!(
            "<tr><td>{g}</td><td align=\"right\">{gp}</td><td>{l}</td><td align=\"right\">{lp}</td></tr>\n"
        ));
    }
    s.push_str(
        "<tr><td colspan=\"4\">TSIA 100.32 (+0.4%) &nbsp; exchange volume 40,100,000 shares \
         &nbsp; advancing 61 / declining 39</td></tr>\n</table>\n</div>\n",
    );
    s
}

/// Quick-quote sidebar with a lookup form and account shortcuts — part of
/// the standard Trade2 page furniture.
fn sidebar_fragment() -> String {
    let mut s = String::with_capacity(1536);
    s.push_str("<div class=\"sidebar\">\n<h2>Quick Quote</h2>\n");
    s.push_str(
        "<form class=\"quoteform\" method=\"GET\" action=\"/trade/app\">\n\
         <input type=\"hidden\" name=\"action\" value=\"quote\">\n\
         symbol: <input type=\"text\" name=\"symbol\" size=\"8\" value=\"s:0\">\n\
         <input type=\"submit\" value=\"get quote\">\n</form>\n",
    );
    s.push_str("<h2>Shortcuts</h2>\n<ul>\n");
    for (label, action) in [
        ("View your portfolio", "portfolio"),
        ("Review account profile", "account"),
        ("Buy 100 shares", "buy"),
        ("Sell oldest holding", "sell"),
        ("Refresh home page", "home"),
    ] {
        s.push_str(&format!(
            "<li><a href=\"/trade/app?action={action}\">{label}</a></li>\n"
        ));
    }
    s.push_str(
        "</ul>\n<div class=\"disclaimer\">Market data are simulated and delayed by the \
         virtual clock. Orders execute against the shared persistent store under the \
         transactional guarantees of the deployed data-access mode.</div>\n</div>\n",
    );
    s
}

fn foot() -> String {
    let mut s = sidebar_fragment();
    s.push_str(&market_summary_fragment());
    s.push_str(
        "<div class=\"footer\">Trade2 models an online brokerage firm providing web-based \
         services such as login, buy, sell, get quote and more. This page was produced by the \
         sli-edge JSP-equivalent renderer; the data above reflect transactionally-consistent \
         entity-bean state served through the configured data-access mode (JDBC, vanilla EJB, \
         or cached SLI EJB). Quotes are delayed by the simulation's virtual clock. Past \
         performance of the simulated index is not indicative of future results; this is a \
         demonstration workload, not investment advice.<br>\
         Server: sli-edge/1.0 &middot; container: prototype J2EE (SLI, persistent and \
         transient homes) &middot; servlet engine: simulated Tomcat 4.1.12 &middot; \
         datastore: sli-datastore (DB2 7.2 stand-in)</div>\n\
         </body>\n</html>\n",
    );
    s
}

/// Markup bytes [`render`] writes around each field, header and cell, and
/// around the content block as a whole — upper bounds for sizing the page.
const FIELD_MARKUP: usize = "<tr><td class=\"field-name\"></td><td></td></tr>\n".len();
const CELL_MARKUP: usize = "<td></td>".len();
const ROW_MARKUP: usize = "<tr></tr>\n".len();
const CONTENT_MARKUP: usize = 128;

/// Renders one action's result to a full HTML page.
pub fn render(result: &TradeResult) -> String {
    let fields: usize = result
        .fields()
        .map(|(name, value)| FIELD_MARKUP + name.len() + value.len())
        .sum();
    let header = result.table_header();
    let cells: usize = ROW_MARKUP
        + header.iter().map(|h| CELL_MARKUP + h.len()).sum::<usize>()
        + result
            .table_rows()
            .map(|row| ROW_MARKUP + row.map(|c| CELL_MARKUP + c.len()).sum::<usize>())
            .sum::<usize>();
    let mut s = page_head(
        result.title,
        CONTENT_MARKUP + result.title.len() + fields + cells,
    );
    s.extend([
        "<div class=\"content\">\n<h1>",
        result.title,
        "</h1>\n<table>\n",
    ]);
    for (name, value) in result.fields() {
        let row = [
            "<tr><td class=\"field-name\">",
            name,
            "</td><td>",
            value,
            "</td></tr>\n",
        ];
        s.extend(row);
    }
    s.push_str("</table>\n");
    if !header.is_empty() {
        s.push_str("<table class=\"data\">\n<tr>");
        for h in header {
            s.extend(["<th>", h, "</th>"]);
        }
        s.push_str("</tr>\n");
        for row in result.table_rows() {
            s.push_str("<tr>");
            for cell in row {
                s.extend(["<td>", cell, "</td>"]);
            }
            s.push_str("</tr>\n");
        }
        s.push_str("</table>\n");
    }
    s.push_str("</div>\n");
    s.push_str(&FOOT);
    s
}

/// Renders an error page (HTTP 4xx/5xx body).
pub fn render_error(title: &str, message: &str) -> String {
    let mut s = page_head(title, CONTENT_MARKUP + title.len() + message.len());
    let _ = writeln!(
        s,
        "<div class=\"content\"><h1>{title}</h1><p>{message}</p></div>"
    );
    s.push_str(&FOOT);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rendered_page_has_realistic_weight() {
        let r = TradeResult::new("Trade Home")
            .field("user", "uid:1")
            .field("balance", "10000.00");
        let html = render(&r);
        assert!(html.len() > 2_000, "page too light: {}", html.len());
        assert!(html.len() < 10_000, "page too heavy: {}", html.len());
        assert!(html.contains("<title>Trade: Trade Home</title>"));
        assert!(html.contains("uid:1"));
        assert!(html.ends_with("</html>\n"));
    }

    #[test]
    fn tables_render_rows() {
        let mut r = TradeResult::new("Portfolio").header(&["symbol", "qty"]);
        r.cell("s:1").cell("100");
        r.cell("s:2").cell("50");
        let html = render(&r);
        assert!(html.contains("<tr><td>s:1</td><td>100</td></tr>"));
        assert!(html.contains("<tr><td>s:2</td><td>50</td></tr>"));
        assert!(html.contains("<th>symbol</th>"));
    }

    /// FNV-1a, to pin a whole page in one number.
    fn fnv(text: &str) -> u64 {
        text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    #[test]
    fn page_bytes_are_pinned() {
        // Lengths and hashes recorded from the renderer that rebuilt the
        // chrome on every call: the constant chrome must not move a byte.
        let mut r = TradeResult::new("Portfolio")
            .field("user", "uid:7")
            .field("balance", "10000.00")
            .header(&["symbol", "qty"]);
        r.cell("s:1").cell("100");
        r.cell("s:2").cell("50");
        let page = render(&r);
        assert_eq!((page.len(), fnv(&page)), (5671, 0xb52d_85ac_a99b_953f));
        let plain = render(&TradeResult::new("Trade Home"));
        assert_eq!((plain.len(), fnv(&plain)), (5421, 0xd769_d214_7fa8_1b16));
        let error = render_error("Error", "no such user");
        assert_eq!((error.len(), fnv(&error)), (5411, 0xc4be_3db9_608e_1c3b));
    }

    #[test]
    fn error_page_renders() {
        let html = render_error("Error", "no such user");
        assert!(html.contains("no such user"));
        assert!(html.len() > 1_500, "error page too light: {}", html.len());
    }
}
