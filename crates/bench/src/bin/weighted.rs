fn main() {
    scan_bench::experiments::main("weighted", &mut std::io::stdout());
}
