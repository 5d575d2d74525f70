//! Workspace automation entry point (cargo-xtask pattern).

mod audit;
mod hotpath;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let task = match args.first().map(String::as_str) {
        Some("audit") => audit::run,
        Some("hotpath") => hotpath::run,
        _ => {
            eprintln!("usage: cargo run -p xtask -- audit [--root <dir>] | hotpath");
            std::process::exit(2);
        }
    };
    match task(&args[1..]) {
        Ok(summary) => println!("{summary}"),
        Err(findings) => {
            eprintln!("{findings}");
            std::process::exit(1);
        }
    }
}
