"""Reference implementations the production data plane is checked against."""
