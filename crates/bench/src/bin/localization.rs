fn main() {
    scan_bench::experiments::main("localization", &mut std::io::stdout());
}
