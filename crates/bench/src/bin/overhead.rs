fn main() {
    scan_bench::experiments::main("overhead", &mut std::io::stdout());
}
