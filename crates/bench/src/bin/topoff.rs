fn main() {
    scan_bench::experiments::main("topoff", &mut std::io::stdout());
}
