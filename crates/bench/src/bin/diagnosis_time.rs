fn main() {
    scan_bench::experiments::main("diagnosis_time", &mut std::io::stdout());
}
