fn main() {
    scan_bench::experiments::main("figure3", &mut std::io::stdout());
}
